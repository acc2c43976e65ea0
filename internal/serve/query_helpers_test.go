package serve

import (
	"context"
	"testing"

	"hyperline/internal/core"
	"hyperline/internal/hg"
)

// lineQ builds the s-line QueryRequest for sValues on a dataset. Of cfg
// only Core.Workers reaches the request: the service answers one output
// class, so no other field names anything it can serve.
func lineQ(dataset string, cfg core.PipelineConfig, sValues ...int) QueryRequest {
	return QueryRequest{Dataset: dataset, S: sValues, Workers: cfg.Core.Workers}
}

// cliqueQ is lineQ for the dual (s-clique) orientation.
func cliqueQ(dataset string, cfg core.PipelineConfig, sValues ...int) QueryRequest {
	return QueryRequest{Dataset: dataset, Dual: true, S: sValues, Workers: cfg.Core.Workers}
}

// mustQuery runs q through Service.Query, failing the test on a
// request-level error.
func mustQuery(t testing.TB, svc *Service, q QueryRequest) *QueryResult {
	t.Helper()
	qr, err := svc.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("Query(%+v): %v", q, err)
	}
	return qr
}

// direct is the uncached reference: one pipeline run for one s,
// bypassing the service.
func direct(t testing.TB, h *hg.Hypergraph, sVal int, cfg core.PipelineConfig) *core.PipelineResult {
	t.Helper()
	out, err := core.RunBatch(context.Background(), h, []int{sVal}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out[sVal]
}
