package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// v2Status posts one /v2/query body and returns the decoded entries,
// asserting the status code. Regression coverage for the all-entries-
// failed case: a sweep where every per-s evaluation failed must answer
// 502 (upstream evaluation failure), while partial success keeps 200
// and client mistakes keep their 4xx — callers must not have to parse
// entries to tell a dead sweep from a live one.
func v2Status(t *testing.T, url, body string, wantStatus int) []struct {
	S     int    `json:"s"`
	Error string `json:"error"`
} {
	t.Helper()
	var resp struct {
		Results []struct {
			S     int    `json:"s"`
			Error string `json:"error"`
		} `json:"results"`
	}
	do(t, http.MethodPost, url+"/v2/query", strings.NewReader(body), wantStatus, &resp)
	return resp.Results
}

func TestV2QueryAllEntriesFailedIs502(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)

	// Hyperedge 3 is {4,5}: with |e| = 2 it can have no s-incident pair
	// at s >= 3, so "distances" from source 3 fails at every requested s.
	results := v2Status(t, ts.URL,
		`{"dataset":"paper","s":"3:4","measure":"distances","params":{"source":"3"}}`,
		http.StatusBadGateway)
	if len(results) != 2 {
		t.Fatalf("want 2 entries, got %+v", results)
	}
	for _, e := range results {
		if e.Error == "" {
			t.Fatalf("entry s=%d unexpectedly succeeded in an all-failed regression case", e.S)
		}
	}
}

func TestV2QueryPartialFailureStays200(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)

	// s=1 succeeds (edge 3 overlaps edge 2 in vertex 4), s=3 fails.
	results := v2Status(t, ts.URL,
		`{"dataset":"paper","s":[1,3],"measure":"distances","params":{"source":"3"}}`,
		http.StatusOK)
	var ok, failed int
	for _, e := range results {
		if e.Error == "" {
			ok++
		} else {
			failed++
		}
	}
	if ok == 0 || failed == 0 {
		t.Fatalf("want a mixed outcome, got %+v", results)
	}
}

// TestV2QueryHugeTimeoutStays200: a timeout_ms past what a Duration
// holds (from 9 223 372 036 855 ms on) saturates to no deadline instead
// of wrapping negative into an instant 504.
func TestV2QueryHugeTimeoutStays200(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)
	for _, ms := range []string{"9223372036854", "9223372036855", "10000000000000", "9223372036854775807"} {
		v2Status(t, ts.URL, `{"dataset":"paper","s":[1,2],"timeout_ms":`+ms+`}`, http.StatusOK)
	}
}

// TestQuotaShedCarriesRetryAfter pins that a per-dataset quota shed
// (-max-inflight-per-dataset) answers 429 *with* a Retry-After header,
// exactly like a global admission shed — clients and the router key
// their backoff off that header, so a bare 429 on the quota path would
// silently defeat it.
func TestQuotaShedCarriesRetryAfter(t *testing.T) {
	svc := New(Config{MaxInflightPerDataset: 1})
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	uploadPaper(t, ts)

	// Occupy the dataset's single admission slot so the next request
	// sheds on the per-dataset quota, not the global budget.
	release, err := svc.adm.Acquire(context.Background(), PriorityInteractive, "paper", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	resp, err := http.Post(ts.URL+"/v2/query", "application/json", strings.NewReader(`{"dataset":"paper","s":[2]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("quota shed returned a bare 429 without Retry-After")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want whole seconds >= 1", ra)
	}
	if st := svc.adm.Stats(); st.ShedPerDataset == 0 {
		t.Fatalf("probe did not exercise the per-dataset quota path: %+v", st)
	}
}

// TestBackgroundQueryShedsWhenSaturated: with the only admission slot
// taken, a "priority":"background" query that needs Stage-3 work is
// shed at once (429, never queued) while one answerable from the cache
// still succeeds — the contract that makes a background sweep a safe
// warmup.
func TestBackgroundQueryShedsWhenSaturated(t *testing.T) {
	svc := New(Config{MaxInflight: 1})
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	uploadPaper(t, ts)
	postQuery(t, ts, `{"dataset":"paper","s":[2]}`, http.StatusOK, nil) // s=2 is now cached

	release, err := svc.adm.Acquire(context.Background(), PriorityInteractive, "paper", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	postQuery(t, ts, `{"dataset":"paper","s":[3],"priority":"background"}`, http.StatusTooManyRequests, nil)
	if st := svc.AdmissionStats(); st.ShedBackground != 1 || st.QueueLength != 0 {
		t.Fatalf("background miss must shed without queueing: %+v", st)
	}
	var hit queryResponseJSON
	postQuery(t, ts, `{"dataset":"paper","s":[2],"priority":"background"}`, http.StatusOK, &hit)
	if !hit.Results[0].Cached {
		t.Fatal("background cache hit must be served, not shed")
	}
}

func TestV2QueryRequestErrorsKeep4xx(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaper(t, ts)

	// Client mistakes must not be reclassified by the all-failed rule,
	// and a malformed or oversize body is a client mistake.
	for _, tc := range []struct {
		name, body string
		status     int
		errHas     string // substring the error body must carry
	}{
		{"unknown measure", `{"dataset":"paper","s":"1:2","measure":"nope"}`, http.StatusBadRequest, ""},
		{"unknown dataset", `{"dataset":"missing","s":"1:2"}`, http.StatusNotFound, ""},
		{"truncated JSON", `{"dataset":"paper","s":[2]`, http.StatusBadRequest, ""},
		{"not an object", `[1,2,3]`, http.StatusBadRequest, ""},
		{"empty body", ``, http.StatusBadRequest, ""},
		// Well-formed and answerable but for its size: whitespace padding.
		{"body over maxQueryBytes", `{"dataset":"paper","s":[2]` + strings.Repeat(" ", maxQueryBytes) + `}`, http.StatusBadRequest, ""},
		// The service answers one output class: the Table III knobs are
		// refused by name, whatever their value.
		{"retired spgemm config word", `{"dataset":"paper","s":[1],"config":"spgemm"}`, http.StatusBadRequest, `"config" is not accepted`},
		{"retired S config letter", `{"dataset":"paper","s":[1],"config":"SBN"}`, http.StatusBadRequest, `"config" is not accepted`},
		{"retired config", `{"dataset":"paper","s":[1],"config":"2BN"}`, http.StatusBadRequest, `"config" is not accepted`},
		{"retired toplex", `{"dataset":"paper","s":[1],"toplex":false}`, http.StatusBadRequest, `"toplex" is not accepted`},
		{"retired nosqueeze", `{"dataset":"paper","s":[1],"nosqueeze":true}`, http.StatusBadRequest, `"nosqueeze" is not accepted`},
		{"retired exact", `{"dataset":"paper","s":[1],"exact":true}`, http.StatusBadRequest, `"exact" is not accepted`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var resp struct {
				Error string `json:"error"`
			}
			do(t, http.MethodPost, ts.URL+"/v2/query", strings.NewReader(tc.body), tc.status, &resp)
			if !strings.Contains(resp.Error, tc.errHas) {
				t.Fatalf("error %q does not contain %q", resp.Error, tc.errHas)
			}
		})
	}
}
