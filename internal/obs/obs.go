// Package obs is the observability plumbing both HTTP tiers share: one
// Prometheus text exposition writer (format 0.0.4) and one
// response-code counter. It holds no metric of its own; each tier
// declares its families as it writes them.
package obs

import (
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"strings"
	"sync"
)

// Doc accumulates one exposition document. The zero value is empty and
// ready to use.
type Doc struct {
	b strings.Builder
}

// Family writes the HELP and TYPE lines that open a metric family.
func (d *Doc) Family(name, help, typ string) {
	fmt.Fprintf(&d.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample. labels is the text between the braces, such
// as `code="200"`, or "" for none.
func (d *Doc) Sample(name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	// %g keeps integers integral and avoids trailing zeros.
	fmt.Fprintf(&d.b, "%s%s %g\n", name, labels, v)
}

// Counter writes an unlabelled counter family and its one sample.
func (d *Doc) Counter(name, help string, v float64) {
	d.Family(name, help, "counter")
	d.Sample(name, "", v)
}

// Gauge writes an unlabelled gauge family and its one sample.
func (d *Doc) Gauge(name, help string, v float64) {
	d.Family(name, help, "gauge")
	d.Sample(name, "", v)
}

// WriteTo writes the document to w.
func (d *Doc) WriteTo(w io.Writer) (int64, error) {
	n, err := io.WriteString(w, d.b.String())
	return int64(n), err
}

// Serve answers an HTTP request with the document.
func (d *Doc) Serve(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	d.WriteTo(w) // a failed write means the scraper went away
}

// Responses counts HTTP responses by status code. The zero value is
// ready to use.
type Responses struct {
	mu    sync.Mutex
	codes map[int]int64
}

// Wrap returns h with every response counted by its status code, except
// requests to the skip paths, whatever their method. A tier skips its
// scrapes and control traffic, so the count reconciles exactly with the
// requests its clients sent.
func (rs *Responses) Wrap(h http.Handler, skip ...string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if slices.Contains(skip, r.URL.Path) {
			h.ServeHTTP(w, r)
			return
		}
		rec := &recorder{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(rec, r)
		rs.mu.Lock()
		if rs.codes == nil {
			rs.codes = make(map[int]int64)
		}
		rs.codes[rec.code]++
		rs.mu.Unlock()
	})
}

// Write writes the counter family name: one sample per code seen,
// labelled code="N", in ascending code order.
func (rs *Responses) Write(d *Doc, name, help string) {
	d.Family(name, help, "counter")
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, c := range slices.Sorted(maps.Keys(rs.codes)) {
		d.Sample(name, fmt.Sprintf(`code="%d"`, c), float64(rs.codes[c]))
	}
}

// recorder captures the status code a handler writes; a handler that
// only calls Write answers 200.
type recorder struct {
	http.ResponseWriter
	code int
}

func (r *recorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}
