// Command strudel-serve serves a Strudel site dynamically: instead of
// materializing the whole site graph up front, each request evaluates at
// "click time" the incremental queries that compute the requested page
// (§2.5, §7), with result caching and optional lookahead.
//
// Usage:
//
//	strudel-serve -data x.ddl [-bibtex y.bib] -query site.struql
//	              [-template Fn=file.tmpl] [-addr :8080] [-lookahead]
//	              [-request-timeout 10s] [-max-inflight 256]
//	              [-reload-interval 2s] [-shutdown-timeout 10s]
//	              [-shards 1] [-replicas 1] [-stale-for 2s] [-query-api]
//	              [-query-max-rows 100000] [-query-timeout 5s]
//
// Templates are keyed by Skolem function name (Fn=...).
//
// The server is production-hardened: per-request deadlines, load shedding
// past -max-inflight, panic recovery, /healthz, hot reload of changed
// -data/-bibtex files with graceful degradation (a broken file keeps the
// last-good site serving and retries with backoff), and SIGINT/SIGTERM
// graceful drain. The serving tier is gray-failure-tolerant, with fixed
// settings (docs/SERVING.md): per-replica circuit breakers, tail-latency
// hedging under a token budget, active health probing every 250ms, and a
// live health grid under /debug/vars (strudel.fleet_health). Exit codes:
// 0 clean (including graceful shutdown), 1 configuration or serving
// error, 2 listener failure (e.g. address in use).
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"strudel/internal/dynamic"
	"strudel/internal/fleet"
	"strudel/internal/graph"
	"strudel/internal/obs"
	"strudel/internal/queryapi"
	"strudel/internal/schema"
	"strudel/internal/struql"
	"strudel/internal/template"
	"strudel/internal/wrapper/filesrc"
)

type stringList []string

func (s *stringList) String() string { return fmt.Sprint(*s) }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// Exit codes, distinguished so supervisors can tell a port conflict from
// a crashed site definition.
const (
	exitOK     = 0
	exitError  = 1
	exitListen = 2
)

type config struct {
	dataFiles, bibFiles, templates []string
	queryFile, addr                string
	debugAddr                      string
	lookahead                      bool
	requestTimeout                 time.Duration
	maxInflight                    int
	reloadInterval                 time.Duration
	shutdownTimeout                time.Duration
	shards, replicas               int
	staleFor                       time.Duration
	queryAPI                       bool
	queryMaxRows                   int
	queryMaxNFAStates              int
	queryTimeout                   time.Duration
	queryPageSize                  int
	queryMaxPageSize               int
	queryMaxInflight               int
}

func main() {
	var cfg config
	var dataFiles, bibFiles, templates stringList
	flag.Var(&dataFiles, "data", "data-definition-language file (repeatable)")
	flag.Var(&bibFiles, "bibtex", "BibTeX file (repeatable)")
	flag.Var(&templates, "template", "template as SkolemFn=file (repeatable)")
	flag.StringVar(&cfg.queryFile, "query", "", "StruQL site-definition query file")
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "listen address for /debug/vars and /debug/pprof/* (empty disables; keep it off the public interface)")
	flag.BoolVar(&cfg.lookahead, "lookahead", false, "precompute linked pages after each request")
	flag.DurationVar(&cfg.requestTimeout, "request-timeout", 10*time.Second, "per-request evaluation deadline (0 disables)")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 256, "max concurrent page requests before shedding with 503 (0 = unlimited)")
	flag.DurationVar(&cfg.reloadInterval, "reload-interval", 2*time.Second, "source-file poll period for hot reload (0 disables)")
	flag.DurationVar(&cfg.shutdownTimeout, "shutdown-timeout", 10*time.Second, "bound on graceful drain after SIGINT/SIGTERM")
	flag.IntVar(&cfg.shards, "shards", 1, "number of page-space shards")
	flag.IntVar(&cfg.replicas, "replicas", 1, "replicas per shard (failover capacity)")
	flag.DurationVar(&cfg.staleFor, "stale-for", 2*time.Second, "stale-while-revalidate window after a hot reload (0 disables stale serving)")
	flag.BoolVar(&cfg.queryAPI, "query-api", true, "serve the StruQL query API (/query, /query/explain, /schema/*)")
	flag.IntVar(&cfg.queryMaxRows, "query-max-rows", 100000, "row guard ceiling per query (requests may only tighten it)")
	flag.IntVar(&cfg.queryMaxNFAStates, "query-max-nfa-states", 1<<20, "path-automaton state guard per query start node")
	flag.DurationVar(&cfg.queryTimeout, "query-timeout", 5*time.Second, "evaluation deadline ceiling per query")
	flag.IntVar(&cfg.queryPageSize, "query-page-size", 100, "default rows per /query page")
	flag.IntVar(&cfg.queryMaxPageSize, "query-max-page-size", 10000, "ceiling on per-request page_size")
	flag.IntVar(&cfg.queryMaxInflight, "query-max-inflight", 64, "max concurrent query requests before shedding with 503 (negative = unlimited)")
	flag.Parse()
	cfg.dataFiles, cfg.bibFiles, cfg.templates = dataFiles, bibFiles, templates

	os.Exit(run(cfg))
}

func run(cfg config) int {
	srv, err := buildServer(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "strudel-serve:", err)
		return exitError
	}
	fl, rl := srv.fleet, srv.reloader

	// Bind before installing signal handling so "address in use" and its
	// kin are reported as what they are, with their own exit code,
	// instead of masquerading as a serving failure.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "strudel-serve: cannot listen on %s: %v\n", cfg.addr, err)
		return exitListen
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Active health probing keeps ejected replicas on a path back to
	// service even when no traffic is reaching them.
	fl.StartHealthChecks(ctx)

	// The debug listener is separate from the production listener on
	// purpose: /debug/vars and /debug/pprof/* expose internals (and
	// pprof can be made to burn CPU), so they bind to an operator-chosen
	// address — typically localhost — and the production mux keeps
	// 404ing /debug/*.
	if cfg.debugAddr != "" {
		dln, err := net.Listen("tcp", cfg.debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "strudel-serve: cannot listen on debug address %s: %v\n", cfg.debugAddr, err)
			return exitListen
		}
		dhs := &http.Server{
			Handler:           srv.debugMux(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			<-ctx.Done()
			dhs.Close()
		}()
		go dhs.Serve(dln)
		fmt.Printf("debug endpoints (/debug/vars, /debug/pprof/) on %s\n", cfg.debugAddr)
	}

	if cfg.reloadInterval > 0 && rl != nil {
		rl.Interval = cfg.reloadInterval
		go rl.Run(ctx)
	}

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      cfg.requestTimeout + 15*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	if cfg.requestTimeout <= 0 {
		hs.WriteTimeout = 0
	}

	// Drain on signal: stop accepting, let in-flight requests finish,
	// bounded by -shutdown-timeout.
	shutdownDone := make(chan error, 1)
	go func() {
		<-ctx.Done()
		shCtx, cancel := context.WithTimeout(context.Background(), cfg.shutdownTimeout)
		defer cancel()
		shutdownDone <- hs.Shutdown(shCtx)
	}()

	roots := fl.EntryPoints()
	fmt.Printf("serving %d entry point(s) on %s via %d shard(s) x %d replica(s) (start at /, health at /healthz)\n",
		len(roots), cfg.addr, fl.Shards(), fl.ReplicasPerShard())
	err = hs.Serve(ln)
	if !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "strudel-serve: serve:", err)
		return exitError
	}
	if err := <-shutdownDone; err != nil {
		fmt.Fprintln(os.Stderr, "strudel-serve: shutdown incomplete (in-flight requests past deadline):", err)
		return exitError
	}
	fmt.Println("strudel-serve: graceful shutdown complete")
	return exitOK
}

// server is the serving stack: the site's fleet of -shards × -replicas
// replicas (1×1 by default, the single-server mode), the page edge in
// front of it, the query API beside it, and the hot reloader that swaps
// new data into every replica.
type server struct {
	fleet    *fleet.Fleet
	edge     *fleet.Edge
	query    *queryapi.Service // nil with -query-api=false
	reloader *dynamic.Reloader // nil for a site with no data files

	serveObs *obs.ServeMetrics
	ivmObs   *obs.IVMMetrics
	fleetObs *obs.FleetMetrics
	queryObs *obs.QueryMetrics
}

// Handler is the production mux: the query API owns /query,
// /query/explain, and /schema/*; the page edge serves everything else.
// Both route through the same fleet, so queries and pages share
// generation snapshots, replica health, and hot reloads.
func (s *server) Handler() http.Handler {
	pages := s.edge.Handler()
	if s.query == nil {
		return pages
	}
	qh := s.query.Handler()
	mux := http.NewServeMux()
	mux.Handle("/query", qh)
	mux.Handle("/query/", qh)
	mux.Handle("/schema/", qh)
	mux.Handle("/", pages)
	return mux
}

// debugMux builds the debug listener's handler: the server's metric
// registry under /debug/vars (published into expvar as "strudel") and
// the pprof handlers wired explicitly, so nothing depends on
// http.DefaultServeMux — the production listener never serves these.
func (s *server) debugMux() http.Handler {
	reg := obs.NewRegistry()
	reg.Register("serve", s.serveObs)
	reg.Register("ivm", s.ivmObs)
	reg.Register("fleet", s.fleetObs)
	reg.Register("queryapi", s.queryObs)
	reg.Register("fleet_health", obs.SnapshotterFunc(s.fleet.HealthSnapshot))
	expvar.Publish("strudel", reg)
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// buildServer assembles the serving stack from the CLI inputs. Every
// -data and -bibtex file becomes a source (named ddl:FILE and bib:FILE,
// as in the strudel builder): the reloader polls the file and re-wraps
// the source on change. Metrics are always collected (they are cheap
// atomics); the debug listener just decides whether anything can read
// them.
func buildServer(cfg config) (*server, error) {
	if cfg.queryFile == "" {
		return nil, fmt.Errorf("provide -query FILE")
	}
	qb, err := os.ReadFile(cfg.queryFile)
	if err != nil {
		return nil, err
	}
	q, err := struql.Parse(string(qb))
	if err != nil {
		return nil, err
	}

	sources, err := filesrc.Sources(cfg.dataFiles, cfg.bibFiles, nil, nil)
	if err != nil {
		return nil, err
	}
	s := &server{
		serveObs: &obs.ServeMetrics{},
		ivmObs:   &obs.IVMMetrics{},
		fleetObs: &obs.FleetMetrics{},
		queryObs: &obs.QueryMetrics{},
	}
	// A site can be pure construction (no data files); it serves fine but
	// has nothing to watch, so the reloader is nil and hot reload is off.
	var data *graph.Frozen
	if len(sources) > 0 {
		if s.reloader, err = dynamic.NewReloader(sources...); err != nil {
			return nil, err
		}
		if data, err = s.reloader.Warehouse(); err != nil {
			return nil, err
		}
		s.reloader.Obs = s.serveObs
		s.reloader.IVM = s.ivmObs
	} else {
		data = graph.New().Freeze()
	}

	ts := template.NewSet()
	perFn := map[string]string{}
	for _, spec := range cfg.templates {
		fn, file, ok := strings.Cut(spec, "=")
		if !ok {
			return nil, fmt.Errorf("-template wants SkolemFn=file, got %q", spec)
		}
		b, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		if err := ts.Add(fn, string(b)); err != nil {
			return nil, err
		}
		perFn[fn] = fn
	}

	// The page space is partitioned over -shards shards of -replicas
	// replicas each, and every request enters through the edge —
	// consistent-hash routing, generation-scoped conditional GETs,
	// stale-while-revalidate across hot reloads.
	s.fleet, err = fleet.New(fleet.Config{
		Schema:    schema.Build(q),
		Templates: ts,
		PerFn:     perFn,
		Shards:    cfg.shards,
		Replicas:  cfg.replicas,
		Lookahead: cfg.lookahead,
		Obs:       s.fleetObs,
		ServeObs:  s.serveObs,
	}, data)
	if err != nil {
		return nil, err
	}
	if len(s.fleet.EntryPoints()) == 0 {
		return nil, fmt.Errorf("the query has no unconditional zero-argument Skolem creation to serve as an entry point")
	}
	s.edge = fleet.NewEdge(s.fleet)
	s.edge.StaleFor = cfg.staleFor
	s.edge.RequestTimeout = cfg.requestTimeout
	s.edge.MaxInflight = cfg.maxInflight
	s.edge.Obs = s.fleetObs
	s.edge.ServeObs = s.serveObs
	if s.reloader != nil {
		// Hot reloads swap every replica of every shard in lockstep.
		s.reloader.AttachSwapper(s.fleet, s.edge.Health)
	}
	if cfg.queryAPI {
		s.query = &queryapi.Service{
			Backend: s.fleet,
			Limits: queryapi.Limits{
				MaxRows:         cfg.queryMaxRows,
				MaxNFAStates:    cfg.queryMaxNFAStates,
				Timeout:         cfg.queryTimeout,
				DefaultPageSize: cfg.queryPageSize,
				MaxPageSize:     cfg.queryMaxPageSize,
			},
			Obs:         s.queryObs,
			MaxInflight: cfg.queryMaxInflight,
		}
	}
	return s, nil
}
