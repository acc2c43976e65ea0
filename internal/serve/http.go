package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"hyperline/internal/core"
	"hyperline/internal/hg"
	"hyperline/internal/hgio"
	"hyperline/internal/measure"
)

// NewHandler returns the hyperlined HTTP/JSON API over svc:
//
//	GET    /healthz
//	GET    /v1/cache
//	GET    /v1/measures
//	GET    /v1/datasets
//	PUT    /v1/datasets/{name}?format=adj|pairs|bin   (body = dataset)
//	POST   /v1/datasets/{name}/load                   {"path": "..."}
//	GET    /v1/datasets/{name}
//	DELETE /v1/datasets/{name}
//	POST   /v2/query                                  (unified JSON query, see handleQueryV2)
//	POST   /v2/ingest                                 (streaming delta, see handleIngest)
//	GET    /v2/datasets/{name}/changes                (long-poll change feed, see handleChanges)
//	GET    /metrics
//
// The /v1 routes are dataset administration and introspection
// (/v1/measures lists the Stage-5 measure registry: name, doc, cost,
// params); every projection, sweep and measure is a POST /v2/query.
// Its handler threads the request's context through the pipeline:
// client disconnects and per-request timeouts cancel the computation
// cooperatively (unless concurrent identical requests still wait on
// it), and an expired context answers 504.
func NewHandler(svc *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /v1/cache", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"pipeline": svc.CacheStats(),
			"measures": svc.MeasureCacheStats(),
		})
	})
	mux.HandleFunc("GET /v1/measures", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, measure.Infos())
	})
	mux.HandleFunc("GET /v1/datasets", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Datasets())
	})
	mux.HandleFunc("PUT /v1/datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		handleUpload(svc, w, r)
	})
	mux.HandleFunc("POST /v1/datasets/{name}/load", func(w http.ResponseWriter, r *http.Request) {
		handleLoad(svc, w, r)
	})
	mux.HandleFunc("GET /v1/datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		stats, err := svc.Stats(r.PathValue("name"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, stats)
	})
	mux.HandleFunc("DELETE /v1/datasets/{name}", func(w http.ResponseWriter, r *http.Request) {
		if !svc.Remove(r.PathValue("name")) {
			writeError(w, http.StatusNotFound, fmt.Errorf("serve: %w %q", ErrUnknownDataset, r.PathValue("name")))
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"removed": true})
	})
	mux.HandleFunc("POST /v2/query", func(w http.ResponseWriter, r *http.Request) {
		handleQueryV2(svc, w, r)
	})
	mux.HandleFunc("POST /v2/ingest", func(w http.ResponseWriter, r *http.Request) {
		handleIngest(svc, w, r)
	})
	mux.HandleFunc("GET /v2/datasets/{name}/changes", func(w http.ResponseWriter, r *http.Request) {
		handleChanges(svc, w, r)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		svc.metricsDoc().Serve(w)
	})
	// Scrapes and health probes (routers poll replica health) are not
	// counted, so hyperline_http_responses_total reconciles exactly with
	// the traffic clients and routers sent.
	return svc.metrics.responses.Wrap(mux, "/metrics", "/healthz")
}

// errStatus maps a service error to an HTTP status: requests shed by
// admission control are 429 (writeError adds the Retry-After header),
// cancelled or deadline-exceeded requests are 504 (the request context
// expired before the pipeline finished), unknown datasets are 404,
// version conflicts 409, and a corrupt dataset (hg.ErrCorrupt) is 500:
// the fault is the server's, not the request's. Everything else is a
// client error.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrSaturated):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrUnknownDataset):
		return http.StatusNotFound
	case errors.Is(err, ErrVersionConflict):
		return http.StatusConflict
	case errors.Is(err, hg.ErrCorrupt):
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	var sat *SaturatedError
	if errors.As(err, &sat) {
		// Retry-After is whole seconds, rounded up so clients never
		// retry before the estimated drain.
		secs := int64((sat.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// clampWorkers bounds a client-supplied worker count: values beyond
// the machine's parallelism only cost memory (per-worker state is
// allocated eagerly), and the output is identical for any count, so
// capping is invisible to the client.
func clampWorkers(n int) int {
	if max := runtime.GOMAXPROCS(0); n > max {
		return max
	}
	return n
}

func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("serve: bad %s %q", name, v)
	}
	return n, nil
}

// maxUploadBytes caps PUT dataset bodies; datasets beyond this should
// be registered server-side via the /load endpoint.
const maxUploadBytes = 4 << 30

func handleUpload(svc *Service, w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	format := r.URL.Query().Get("format")
	body := http.MaxBytesReader(w, r.Body, maxUploadBytes)
	var err error
	var h *hg.Hypergraph
	switch format {
	case "", "adj":
		h, err = hgio.ReadAdjacency(body)
	case "pairs":
		h, err = hgio.ReadPairs(body)
	case "bin":
		h, err = hgio.ReadBinary(body)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: unknown format %q (want adj, pairs, or bin)", format))
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	svc.Add(name, h)
	stats, _ := svc.Stats(name)
	writeJSON(w, http.StatusOK, stats)
}

func handleLoad(svc *Service, w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req struct {
		Path string `json:"path"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBytes)).Decode(&req); err != nil || req.Path == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: body must be {\"path\": \"...\"}"))
		return
	}
	if err := svc.Load(name, req.Path); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	stats, _ := svc.Stats(name)
	writeJSON(w, http.StatusOK, stats)
}

// planJSON surfaces the executed plan — the Stage-3 strategy, the
// resolved preprocessing knobs, and their reasons — for observability.
type planJSON struct {
	Strategy string `json:"strategy"`
	Reason   string `json:"reason,omitempty"`
	// Relabel is the resolved Stage-1 order ("N", "A", or "D").
	Relabel string `json:"relabel,omitempty"`
	// Toplex reports whether Stage-2 simplification ran.
	Toplex bool `json:"toplex"`
	// KnobReason explains the planner's knob choices; empty when the
	// caller pinned them.
	KnobReason string `json:"knob_reason,omitempty"`
}

// toPlan maps a pipeline plan into its JSON form.
func toPlan(p core.PlanInfo) planJSON {
	return planJSON{
		Strategy:   p.Strategy,
		Reason:     p.Reason,
		Relabel:    p.Relabel,
		Toplex:     p.Toplex,
		KnobReason: p.KnobReason,
	}
}

type timingsJSON struct {
	Preprocess float64 `json:"preprocess"`
	Toplex     float64 `json:"toplex"`
	SOverlap   float64 `json:"soverlap"`
	Squeeze    float64 `json:"squeeze"`
	Total      float64 `json:"total"`
}

func toTimings(t core.StageTimings) timingsJSON {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return timingsJSON{
		Preprocess: ms(t.Preprocess),
		Toplex:     ms(t.Toplex),
		SOverlap:   ms(t.SOverlap),
		Squeeze:    ms(t.Squeeze),
		Total:      ms(t.Total()),
	}
}
