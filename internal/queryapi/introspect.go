package queryapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"strudel/internal/fleet"
	"strudel/internal/graph"
	"strudel/internal/repo"
	"strudel/internal/spine"
	"strudel/internal/struql"
)

// The introspection surface: /schema/labels and /schema/collections
// answer "what can I query" from the source's own indexes,
// /schema/dataguide materializes the strong dataguide (every label path
// that exists in the reachable graph, to a bounded depth), and
// /query/explain surfaces the cost-based planner's EXPLAIN text.
// Everything routes through the fleet like queries do, is keyed to a
// generation, and is memoized per generation in a bounded LRU —
// introspection is read traffic too and earns the same ETag/304
// treatment.

// LabelInfo is one row of /schema/labels: the label's edge count and
// its distinct source and target counts, read from the generation's
// snapshot.
type LabelInfo struct {
	Label   string `json:"label"`
	Count   int    `json:"count"`
	Sources int    `json:"sources"`
	Targets int    `json:"targets"`
}

// introspect runs a closure over the generation's snapshot through the
// backend with per-generation memoization and conditional-GET handling
// shared by every introspection endpoint.
func (s *Service) introspect(w http.ResponseWriter, r *http.Request, kind, memoKey string,
	fn func(data *graph.Frozen) (any, error)) {

	if r.Method != http.MethodGet {
		s.fail(w, r, &spine.Error{Code: spine.CodeBadRequest, Status: http.StatusMethodNotAllowed,
			Message: "use GET"})
		return
	}
	s.Obs.SchemaRequests.Inc()
	gen := s.Backend.Generation()
	etag := fmt.Sprintf("\"sg%d-%s\"", gen, memoKey)
	if inm := r.Header.Get("If-None-Match"); inm != "" && fleet.ETagMatch(inm, etag) {
		s.Obs.NotModified.Inc()
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	key := fmt.Sprintf("g%d-%s", gen, memoKey)
	s.mu.Lock()
	payload, ok := s.memo.Get(key)
	s.mu.Unlock()
	if !ok {
		var gotGen int64
		var err error
		payload, gotGen, err = s.Backend.EvalOn(r.Context(), "schema:"+kind,
			func(ctx context.Context, src struql.Source, g int64) (string, error) {
				data, err := struql.Snapshot(src)
				if err != nil {
					return "", err
				}
				body, err := fn(data)
				if err != nil {
					return "", err
				}
				out, err := json.Marshal(body)
				return string(out), err
			})
		if err != nil {
			s.fail(w, r, err)
			return
		}
		// The closure may have run on a newer generation than the one
		// sampled above (a swap raced); key the memo and validator by
		// what actually ran.
		if gotGen != gen {
			gen = gotGen
			etag = fmt.Sprintf("\"sg%d-%s\"", gen, memoKey)
			key = fmt.Sprintf("g%d-%s", gen, memoKey)
		}
		s.mu.Lock()
		s.memo.Put(key, payload)
		s.mu.Unlock()
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", etag)
	fmt.Fprintf(w, "{\"generation\":%d,%s}\n", gen, payload[1:len(payload)-1])
}

func (s *Service) handleLabels(w http.ResponseWriter, r *http.Request) {
	s.introspect(w, r, "labels", "labels", func(data *graph.Frozen) (any, error) {
		labels := data.Labels()
		infos := make([]LabelInfo, len(labels))
		for i, l := range labels {
			infos[i].Label = l
			infos[i].Count, infos[i].Sources, infos[i].Targets = data.LabelStats(l)
		}
		return map[string]any{"labels": infos}, nil
	})
}

func (s *Service) handleCollections(w http.ResponseWriter, r *http.Request) {
	type collInfo struct {
		Name string `json:"name"`
		Size int    `json:"size"`
	}
	s.introspect(w, r, "collections", "collections", func(data *graph.Frozen) (any, error) {
		names := data.CollectionNames()
		infos := make([]collInfo, 0, len(names))
		for _, n := range names {
			infos = append(infos, collInfo{Name: n, Size: data.CollectionSize(n)})
		}
		return map[string]any{"collections": infos}, nil
	})
}

func (s *Service) handleDataguide(w http.ResponseWriter, r *http.Request) {
	depth := 4
	if d := r.URL.Query().Get("depth"); d != "" {
		n, err := strconv.Atoi(d)
		if err != nil || n < 1 || n > 8 {
			s.fail(w, r, &spine.Error{Code: spine.CodeBadRequest,
				Message: "depth must be an integer in [1, 8]"})
			return
		}
		depth = n
	}
	memoKey := fmt.Sprintf("dataguide-d%d", depth)
	s.introspect(w, r, "dataguide", memoKey, func(data *graph.Frozen) (any, error) {
		dg := repo.BuildDataGuide(data, nil)
		paths := dg.Paths(depth)
		if paths == nil {
			paths = []string{}
		}
		return map[string]any{"depth": depth, "size": dg.Size(), "paths": paths}, nil
	})
}

// handleExplain surfaces the planner: POST the same envelope as /query
// and get back the EXPLAIN rendering (condition order, access paths,
// estimated costs) for the generation-pinned statistics of a live
// replica. A bare where clause and a full StruQL query are both
// accepted — the former is wrapped in a synthetic one-block query.
func (s *Service) handleExplain(w http.ResponseWriter, r *http.Request) {
	req, aerr := s.readRequest(r)
	if aerr != nil {
		s.fail(w, r, aerr)
		return
	}
	q, qerr := struql.Parse(req.Query)
	if qerr != nil {
		conds, werr := struql.ParseWhere(req.Query)
		if werr != nil {
			// The where-clause error wins: /query accepts only where
			// clauses, so it is the more actionable diagnosis.
			s.fail(w, r, werr)
			return
		}
		q = &struql.Query{Blocks: []*struql.Block{{Where: conds, Line: 1}}}
	}
	payload, gen, err := s.Backend.EvalOn(r.Context(), fmt.Sprintf("query:%016x", queryHash(req.Query, nil)),
		func(ctx context.Context, src struql.Source, g int64) (string, error) {
			return struql.Explain(q, src, nil)
		})
	if err != nil {
		s.fail(w, r, err)
		return
	}
	s.Obs.Explains.Inc()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"generation": gen, "explain": payload})
}
