// Orgsite: the AT&T-Labs-Research-style organization site of §5.1 — home
// pages for ~400 members, organization, project, research-area, and
// publication pages, integrated from five sources (two relational tables,
// a structured project file, a BibTeX bibliography, and hand-written HTML
// bios), in internal and external versions built from the same query.
//
//	go run ./examples/orgsite [-people 400] [-out orgsite-out]
package main

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"

	"strudel/internal/core"
	"strudel/internal/sites"
)

func main() {
	people := flag.Int("people", 400, "number of lab members")
	out := flag.String("out", "orgsite-out", "output directory")
	flag.Parse()

	spec := sites.OrgSite(*people, *people/20+1, *people/10+1, *people/8+1)
	res, err := core.Build(spec)
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"internal", "external"} {
		vr := res.Versions[name]
		dir := filepath.Join(*out, name)
		if err := vr.Output.WriteDir(dir); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s site: %s → %s\n", name, vr.Stats, dir)
		for _, c := range vr.Checks {
			fmt.Printf("  %s: %s\n", c.Verdict, c.Reason)
		}
	}
	fmt.Printf("\ndata graph: %d sources integrated, %d nodes, %d edges\n",
		len(spec.Sources), res.Data.NumNodes(), res.Data.NumEdges())
	fmt.Println("The external site needed no new queries — five templates differ (§5.1).")
}
