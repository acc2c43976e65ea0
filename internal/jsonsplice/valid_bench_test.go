package jsonsplice_test

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"hyperline/internal/experiments"
	"hyperline/internal/jsonsplice"
	"hyperline/internal/serve"
)

// BenchmarkValid times Valid against encoding/json.Valid, in MB/s, on
// the entries a replica writes for the Friendster analog at scale 1:
// the s = 1 line graph (about 90 KB, mostly hyperedge IDs) and s = 4.
func BenchmarkValid(b *testing.B) {
	svc := serve.New(serve.Config{})
	defer svc.Close()
	svc.Add("friendster", experiments.FriendsterAnalog(1))
	sVals := []int{1, 4}
	rec := httptest.NewRecorder()
	serve.NewHandler(svc).ServeHTTP(rec, httptest.NewRequest("POST", "/v2/query",
		strings.NewReader(`{"dataset":"friendster","s":[1,4]}`)))
	_, entries, ok := jsonsplice.Split(rec.Body.Bytes(), rec.Header().Get(jsonsplice.EntriesHeader))
	if !ok || len(entries) != len(sVals) {
		b.Fatalf("status %d: no %d entries in %.200q", rec.Code, len(sVals), rec.Body.Bytes())
	}
	for i, entry := range entries {
		for _, v := range []struct {
			name  string
			valid func([]byte) bool
		}{{"jsonsplice", jsonsplice.Valid}, {"encoding-json", json.Valid}} {
			b.Run(fmt.Sprintf("s=%d/%s", sVals[i], v.name), func(b *testing.B) {
				b.SetBytes(int64(len(entry)))
				for range b.N {
					if !v.valid(entry) {
						b.Fatalf("%s rejects the s=%d entry", v.name, sVals[i])
					}
				}
			})
		}
	}
}
