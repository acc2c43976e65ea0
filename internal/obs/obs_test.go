package obs

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hyperline/internal/loadgen"
)

// serveAll sends one request per (method, path) pair through h.
func serveAll(h http.Handler, method string, paths ...string) {
	for _, p := range paths {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(method, p, nil))
	}
}

// codeHandler answers /ok with a body alone (an implicit 200) and
// /code/N with an explicit WriteHeader(N).
var codeHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	var code int
	if _, err := fmt.Sscanf(r.URL.Path, "/code/%d", &code); err == nil {
		w.WriteHeader(code)
		return
	}
	w.Write([]byte("ok"))
})

func written(rs *Responses) string {
	d := &Doc{}
	rs.Write(d, "x_responses_total", "responses")
	var b strings.Builder
	d.WriteTo(&b)
	return b.String()
}

func TestResponsesCountCodes(t *testing.T) {
	var rs Responses
	h := rs.Wrap(codeHandler)
	serveAll(h, http.MethodGet, "/ok", "/code/429", "/ok", "/code/404", "/code/200")
	want := "# HELP x_responses_total responses\n# TYPE x_responses_total counter\n" +
		"x_responses_total{code=\"200\"} 3\n" +
		"x_responses_total{code=\"404\"} 1\n" +
		"x_responses_total{code=\"429\"} 1\n"
	if got := written(&rs); got != want {
		t.Fatalf("got\n%s\nwant\n%s", got, want)
	}
}

func TestResponsesSkipPaths(t *testing.T) {
	var rs Responses
	h := rs.Wrap(codeHandler, "/metrics", "/healthz", "/v1/replicas")
	for _, m := range []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete} {
		serveAll(h, m, "/metrics", "/healthz", "/v1/replicas")
	}
	serveAll(h, http.MethodGet, "/metrics/x", "/v1/replicas/")
	want := "# HELP x_responses_total responses\n# TYPE x_responses_total counter\n" +
		"x_responses_total{code=\"200\"} 2\n"
	if got := written(&rs); got != want {
		t.Fatalf("got\n%s\nwant\n%s", got, want)
	}
}

// TestResponsesConcurrent counts from several goroutines while another
// scrapes; run with -race.
func TestResponsesConcurrent(t *testing.T) {
	const workers, each = 8, 200
	var rs Responses
	h := rs.Wrap(codeHandler)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				serveAll(h, http.MethodGet, "/ok", "/code/503")
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			written(&rs)
		}
	}()
	wg.Wait()
	<-done
	got, err := loadgen.ParseMetrics(written(&rs))
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range []string{"200", "503"} {
		if n := got[`x_responses_total{code="`+code+`"}`]; n != workers*each {
			t.Errorf("code %s counted %g times, want %d", code, n, workers*each)
		}
	}
}

// TestDocExposition pins the lines Doc writes to the ones both tiers
// wrote before it existed, and reads every sample back through the
// load generator's parser.
func TestDocExposition(t *testing.T) {
	cases := []struct {
		name  string
		write func(d *Doc)
		want  string
		value float64
	}{
		{"counter", func(d *Doc) { d.Counter("a_total", "a things", 7) },
			"# HELP a_total a things\n# TYPE a_total counter\na_total 7\n", 7},
		{"gauge", func(d *Doc) { d.Gauge("b", "b now", 0.25) },
			"# HELP b b now\n# TYPE b gauge\nb 0.25\n", 0.25},
		{"labelled", func(d *Doc) {
			d.Family("c_total", "c by outcome", "counter")
			d.Sample("c_total", `outcome="ok"`, 3)
		}, "# HELP c_total c by outcome\n# TYPE c_total counter\nc_total{outcome=\"ok\"} 3\n", 3},
		{"million", func(d *Doc) { d.Counter("e_total", "e", 1e6) },
			"# HELP e_total e\n# TYPE e_total counter\ne_total 1e+06\n", 1e6},
		{"large", func(d *Doc) { d.Gauge("f_bytes", "f", 123456789) },
			"# HELP f_bytes f\n# TYPE f_bytes gauge\nf_bytes 1.23456789e+08\n", 123456789},
		{"histogram", func(d *Doc) {
			d.Family("h_seconds", "h", "histogram")
			d.Sample("h_seconds_bucket", `stage="total",le="0.001"`, 2)
		}, "# HELP h_seconds h\n# TYPE h_seconds histogram\nh_seconds_bucket{stage=\"total\",le=\"0.001\"} 2\n", 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := &Doc{}
			c.write(d)
			rec := httptest.NewRecorder()
			d.Serve(rec)
			if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
				t.Fatalf("content type %q", ct)
			}
			got := rec.Body.String()
			if got != c.want {
				t.Fatalf("got\n%q\nwant\n%q", got, c.want)
			}
			parsed, err := loadgen.ParseMetrics(got)
			if err != nil {
				t.Fatal(err)
			}
			if len(parsed) != 1 {
				t.Fatalf("parsed %d samples, want 1: %v", len(parsed), parsed)
			}
			for _, v := range parsed {
				if v != c.value {
					t.Fatalf("parsed value %g, want %g", v, c.value)
				}
			}
		})
	}
}
