package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"strudel/internal/dynamic"
	"strudel/internal/graph"
)

// graphAtGen builds generation i of a reloading site: the seed site
// plus i marker publications, so every generation renders distinct,
// predictable bytes.
func graphAtGen(seed uint64, i int) *graph.Graph {
	g := genSiteData(seed)
	for k := 1; k <= i; k++ {
		oid := graph.OID(fmt.Sprintf("gen%02dmark", k))
		g.AddToCollection("Pubs", oid)
		g.AddEdge(oid, "title", graph.NewString(fmt.Sprintf("Reload marker %d", k)))
		g.AddEdge(oid, "year", graph.NewInt(int64(1990+k%8)))
	}
	return g
}

// TestReloadUnderLoad is the raced reload drill: readers hammer the
// edge while the fleet swaps through several generations. The torn-page
// invariant: every 200 is byte-identical to the single-evaluator
// reference for the exact generation in its ETag — never a mix of two
// generations, never bytes labeled with a generation they didn't come
// from. Afterward, with swaps quiesced and the stale window elapsed, the
// edge must serve the final generation only (no stale-generation
// responses outlive the window).
func TestReloadUnderLoad(t *testing.T) {
	const swaps = 4
	s := buildSchema(t)
	f := newTestFleet(t, s, graphAtGen(21, 0), 2, 2)
	e := NewEdge(f)
	e.StaleFor = 50 * time.Millisecond
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	// Precompute every generation's reference bodies up front (the
	// readers check lock-free against this immutable map).
	want := make([]map[string]string, swaps+1)
	var refs [][]dynamic.PageRef
	for gen := 0; gen <= swaps; gen++ {
		srv := newReference(t, s, graphAtGen(21, gen))
		want[gen] = map[string]string{}
		prs := crawlRefs(t, srv)
		for _, r := range prs {
			b, err := srv.RenderPage(r)
			if err != nil {
				t.Fatalf("reference render gen %d: %v", gen, err)
			}
			want[gen][EncodeRef(r)] = b
		}
		refs = append(refs, prs)
	}
	// Readers request pages that exist in every generation (generation
	// 0's set; reload only adds pages here).
	pages := refs[0]

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := newTestRand(uint64(7000 + w))
			for {
				select {
				case <-stop:
					return
				default:
				}
				pr := pages[r.n(len(pages))]
				status, hdr, body := get(t, ts, PageURL(pr), nil)
				if status != http.StatusOK {
					t.Errorf("GET %s during reloads = %d", PageURL(pr), status)
					continue
				}
				gen := etagGen(t, hdr.Get("ETag"))
				if gen < 0 || gen > swaps {
					t.Errorf("GET %s tagged with impossible generation %d", PageURL(pr), gen)
					continue
				}
				if wantBody := want[gen][EncodeRef(pr)]; body != wantBody {
					t.Errorf("torn page: %s tagged gen %d does not match that generation's reference", PageURL(pr), gen)
				}
			}
		}(w)
	}

	for i := 1; i <= swaps; i++ {
		time.Sleep(30 * time.Millisecond)
		f.SwapData(graphAtGen(21, i).Freeze(), nil)
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Quiesce past the stale window: every page must now serve the final
	// generation, bytes and tag both.
	time.Sleep(e.StaleFor + 20*time.Millisecond)
	for _, pr := range pages {
		// Two GETs: the first may still flush a pre-window stale entry
		// via synchronous revalidation; the second must be final.
		get(t, ts, PageURL(pr), nil)
		status, hdr, body := get(t, ts, PageURL(pr), nil)
		if status != http.StatusOK {
			t.Fatalf("post-reload GET %s = %d", PageURL(pr), status)
		}
		if gen := etagGen(t, hdr.Get("ETag")); gen != swaps {
			t.Fatalf("post-reload GET %s still at generation %d, want %d", PageURL(pr), gen, swaps)
		}
		if body != want[swaps][EncodeRef(pr)] {
			t.Fatalf("post-reload GET %s does not match final reference", PageURL(pr))
		}
	}
}
