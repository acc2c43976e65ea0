package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"hyperline/internal/jsonsplice"
)

// FuzzQueryV2Body: any bytes POSTed to /v2/query over the paper's
// example get an answer — no panic — whose status is one the handler
// documents, and every 200 or 502 body is what the router reads: it
// passes jsonsplice.Split under its Hyperline-Entries index, and each
// entry passes jsonsplice.Valid.
func FuzzQueryV2Body(f *testing.F) {
	for _, body := range []string{
		`{"dataset":"paper","s":[1,2,3]}`,
		`{"dataset":"paper","s":"1,2:3","kind":"clique","edges":true}`,
		`{"dataset":"paper","s":[2],"measure":"components"}`,
		`{"dataset":"paper","s":[1,3],"measure":"distances","params":{"source":"3"}}`,
		`{"dataset":"paper","s":[3],"measure":"distances","params":{"source":"3"}}`,
		`{"dataset":"paper","s":[1],"measure":"pagerank","params":{"damping":"0.5"}}`,
		`{"dataset":"paper","s":[1,2],"config":"auto","toplex":"auto","nosqueeze":true,"exact":true}`,
		`{"dataset":"paper","s":[1],"config":"9ZZ"}`,
		`{"dataset":"paper","s":[1],"workers":-1,"priority":"background","timeout_ms":1}`,
		`{"dataset":"nope","s":[1]}`,
		`{"dataset":"paper","s":[0,4294967296]}`,
		`{"dataset":"paper","s":"1:"}`,
		`{"dataset":"paper"}`,
		`{"s":[1]}`,
		`[1,2]`,
		``,
		`{"dataset":"paper","s":[1]} trailing`,
		`{"dataset":"paper","s":[1],"toplex":false}`,
		`{"dataset":"paper","s":[1],"nosqueeze":null}`,
		`{"dataset":"paper","s":[1],"exact":true,"workers":1}`,
	} {
		f.Add([]byte(body))
	}
	svc := New(Config{})
	defer svc.Close()
	svc.Add("paper", paperExample())
	h := NewHandler(svc)
	documented := map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true, http.StatusNotFound: true,
		http.StatusTooManyRequests: true, http.StatusBadGateway: true, http.StatusGatewayTimeout: true,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/query", bytes.NewReader(body)))
		if !documented[rec.Code] {
			t.Fatalf("%q: undocumented status %d: %s", body, rec.Code, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadGateway {
			return
		}
		_, entries, ok := jsonsplice.Split(rec.Body.Bytes(), rec.Header().Get(jsonsplice.EntriesHeader))
		if !ok {
			t.Fatalf("%q: status %d body %q does not split under its index %q",
				body, rec.Code, rec.Body.Bytes(), rec.Header().Get(jsonsplice.EntriesHeader))
		}
		for i, e := range entries {
			if !jsonsplice.Valid(e) {
				t.Fatalf("%q: entry %d is not JSON: %q", body, i, e)
			}
		}
	})
}
