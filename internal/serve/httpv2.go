package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"hyperline/internal/core"
	"hyperline/internal/jsonsplice"
	"hyperline/internal/measure"
)

// msDuration converts a client's timeout_ms to a Duration. It saturates
// at the largest Duration (about 292 years, no deadline in practice)
// where time.Duration(ms)*time.Millisecond would wrap negative.
func msDuration(ms int) time.Duration {
	if int64(ms) > math.MaxInt64/int64(time.Millisecond) {
		return math.MaxInt64
	}
	return time.Duration(ms) * time.Millisecond
}

// queryRequestJSON is the POST /v2/query body: the unified query. "s"
// accepts a JSON integer array or an s-list string ("1,4:8"); "kind" is
// "line" (default) or "clique"; "timeout_ms" bounds this request via
// its context (independent of any server-wide -request-timeout,
// whichever expires first wins).
type queryRequestJSON struct {
	Dataset   string            `json:"dataset"`
	Kind      string            `json:"kind,omitempty"`
	S         json.RawMessage   `json:"s"`
	Measure   string            `json:"measure,omitempty"`
	Params    map[string]string `json:"params,omitempty"`
	Config    string            `json:"config,omitempty"`
	Workers   int               `json:"workers,omitempty"`
	Toplex    toplexJSON        `json:"toplex,omitempty"`
	NoSqueeze bool              `json:"nosqueeze,omitempty"`
	Exact     bool              `json:"exact,omitempty"`
	Edges     bool              `json:"edges,omitempty"`
	TimeoutMS int               `json:"timeout_ms,omitempty"`
	// Priority is "interactive" (default) or "background": background
	// queries are shed instead of queued when admission control is
	// saturated, so bulk cache-seeding traffic yields to users.
	Priority string `json:"priority,omitempty"`
}

// toplexJSON accepts the two JSON spellings of the toplex knob: a
// boolean, or the string "auto" for the planner-resolved mode. The
// zero value (field omitted) is ToplexOff.
type toplexJSON struct {
	mode core.ToplexMode
}

func (t *toplexJSON) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case "true":
		t.mode = core.ToplexOn
	case "false", "null":
		t.mode = core.ToplexOff
	case `"auto"`:
		t.mode = core.ToplexAuto
	default:
		return fmt.Errorf("serve: bad toplex %s (want true, false, or \"auto\")", b)
	}
	return nil
}

// queryEntryJSON is one per-s result of a v2 query. Exactly one of
// Error or the payload fields is meaningful; Error carries per-s
// failures (the rest of the sweep still answers).
type queryEntryJSON struct {
	S                int            `json:"s"`
	Error            string         `json:"error,omitempty"`
	Cached           bool           `json:"cached"`
	ProjectionCached bool           `json:"projection_cached,omitempty"`
	Nodes            int            `json:"nodes,omitempty"`
	Edges            int            `json:"edges,omitempty"`
	HyperedgeIDs     []uint32       `json:"hyperedge_ids,omitempty"`
	EdgeList         [][3]uint32    `json:"edge_list,omitempty"`
	Value            *measure.Value `json:"value,omitempty"`
	TimingsMS        *timingsJSON   `json:"timings_ms,omitempty"`
}

// queryHeadJSON is a /v2/query response document without its last
// field: the body is this object followed by "results", the
// queryEntryJSON encoding of every entry in ascending s.
type queryHeadJSON struct {
	Dataset string `json:"dataset"`
	// Version is the dataset version the query was pinned to; streaming
	// clients use it to order answers across ingested deltas.
	Version   uint64    `json:"version"`
	Kind      string    `json:"kind"`
	Measure   string    `json:"measure,omitempty"`
	Plan      *planJSON `json:"plan,omitempty"`
	ElapsedMS float64   `json:"elapsed_ms"`
}

// maxQueryBytes caps POST /v2/query bodies: a query is a dataset name,
// an s-list of at most core.MaxSValues values and a handful of options,
// so 1 MiB is far beyond any well-formed request. It caps the
// {"path": ...} body of POST /v1/datasets/{name}/load too.
const maxQueryBytes = 1 << 20

// handleQueryV2 serves POST /v2/query: one JSON Query in, ordered
// per-s entries (with per-s errors), the executed plan, and stage
// timings out. Edge lists are opt-in ("edges": true) — the default
// response carries the projection shape, mapping, and measure value
// only.
//
// The body is byte-for-byte what encoding/json writes for the response
// document; an entry this query found in a cache is encoded once per
// cache entry and spliced in, everything else is encoded per request.
func handleQueryV2(svc *Service, w http.ResponseWriter, r *http.Request) {
	var req queryRequestJSON
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad /v2/query body: %w", err))
		return
	}
	if req.Dataset == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: \"dataset\" is required"))
		return
	}
	var dual bool
	switch req.Kind {
	case "", "line":
		dual = false
	case "clique":
		dual = true
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: unknown kind %q (want \"line\" or \"clique\")", req.Kind))
		return
	}
	sweep, err := core.DecodeSValues(req.S)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var cfg core.PipelineConfig
	if req.Config != "" {
		c, err := core.ParseNotation(req.Config)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		cfg.Core = c
	}
	cfg.Toplex = req.Toplex.mode
	cfg.NoSqueeze = req.NoSqueeze
	cfg.Core.DisableShortCircuit = req.Exact
	if req.Workers < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad workers %d", req.Workers))
		return
	}
	cfg.Core.Workers = clampWorkers(req.Workers)
	var pri Priority
	switch req.Priority {
	case "", "interactive":
		pri = PriorityInteractive
	case "background":
		pri = PriorityBackground
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: unknown priority %q (want \"interactive\" or \"background\")", req.Priority))
		return
	}

	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, msDuration(req.TimeoutMS))
		defer cancel()
	}

	start := time.Now()
	qr, err := svc.Query(ctx, QueryRequest{
		Dataset:  req.Dataset,
		Dual:     dual,
		S:        sweep,
		Cfg:      cfg,
		Measure:  req.Measure,
		Params:   req.Params,
		Priority: pri,
	})
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}

	writeQueryV2(w, queryHeadJSON{
		Dataset:   req.Dataset,
		Kind:      kindString(dual),
		Measure:   req.Measure,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	}, qr, req.Edges)
}

// writeQueryV2 writes the /v2/query answer for qr under head (version
// and plan filled from qr); edges adds the projections' edge lists.
func writeQueryV2(w http.ResponseWriter, head queryHeadJSON, qr *QueryResult, edges bool) {
	head.Version = qr.Version
	if qr.Plan.Strategy != "" {
		plan := toPlan(qr.Plan)
		head.Plan = &plan
	}
	// Per-s errors keep 200 while at least one entry answered, but a
	// sweep where *every* entry failed is a failed request: 502 lets
	// load balancers and load generators tell it from success without
	// parsing entries. (Per-s errors are upstream evaluation failures,
	// not client mistakes, hence the 502 class.)
	status := http.StatusOK
	if len(qr.Entries) > 0 {
		status = http.StatusBadGateway
	}
	entries := make([]jsonsplice.Entry, len(qr.Entries))
	for i, e := range qr.Entries {
		if e.Err == nil {
			status = http.StatusOK
		}
		// A fragment has no edge list, so a projection asked for with
		// edges is encoded afresh, as is an entry that does not encode
		// (the encoder then reports it).
		if e.frag != nil && !(edges && e.Res != nil) {
			entries[i].Raw = e.frag.get(func() []byte { b, _ := json.Marshal(entryJSON(e, false)); return b })
		}
		if entries[i].Raw == nil {
			entries[i].Value = entryJSON(e, edges)
		}
	}
	jsonsplice.Write(w, status, head, entries)
}

// entryJSON renders one Query entry in its wire form; edges adds the
// projection's edge list.
func entryJSON(e QueryEntry, edges bool) queryEntryJSON {
	out := queryEntryJSON{S: e.S, Cached: e.Cached}
	if e.Err != nil {
		out.Error = e.Err.Error()
		return out
	}
	switch {
	case e.Measure != nil:
		out.ProjectionCached = e.Measure.ProjectionCached
		out.Nodes = e.Measure.Nodes
		out.Edges = e.Measure.Edges
		out.HyperedgeIDs = e.Measure.HyperedgeIDs
		out.Value = e.Measure.Value
	case e.Res != nil:
		out.Nodes = e.Res.Graph.NumNodes()
		out.Edges = e.Res.Graph.NumEdges()
		out.HyperedgeIDs = e.Res.HyperedgeIDs
	}
	if e.Res != nil {
		t := toTimings(e.Res.Timings)
		out.TimingsMS = &t
		if edges {
			ges := e.Res.Graph.Edges()
			out.EdgeList = make([][3]uint32, len(ges))
			for j, ge := range ges {
				out.EdgeList[j] = [3]uint32{ge.U, ge.V, ge.W}
			}
		}
	}
	return out
}

// kindString renders the orientation the way the v2 API spells it.
func kindString(dual bool) string {
	if dual {
		return "clique"
	}
	return "line"
}
