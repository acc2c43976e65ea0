package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hyperline/internal/core"
	"hyperline/internal/hg"
)

// Priority classifies admitted Stage-3 work. Interactive requests (the
// query endpoints) may wait in a bounded FIFO queue when the server is
// saturated; background work (warmup sweeps) is admitted only when
// spare capacity exists right now and is shed otherwise, so a warmup
// storm can never starve user queries.
type Priority int

const (
	// PriorityInteractive is the default class: user-facing queries.
	PriorityInteractive Priority = iota
	// PriorityBackground marks deferrable work: warmup sweeps and other
	// cache-seeding traffic.
	PriorityBackground
)

// ErrSaturated marks requests shed by admission control. The HTTP layer
// maps it to 429 with a Retry-After header; errors.Is(err, ErrSaturated)
// identifies it through wrapping.
var ErrSaturated = errors.New("saturated")

// SaturatedError is the concrete shed error: it carries the estimated
// time until enough admitted work drains for a retry to stand a chance.
type SaturatedError struct {
	// RetryAfter is a coarse drain estimate (>= 1s).
	RetryAfter time.Duration
}

func (e *SaturatedError) Error() string {
	return fmt.Sprintf("serve: saturated, retry after %s", e.RetryAfter)
}

// Is makes errors.Is(err, ErrSaturated) true for every SaturatedError.
func (e *SaturatedError) Is(target error) bool { return target == ErrSaturated }

// AdmissionStats is a point-in-time snapshot of the admission
// controller: configuration, live occupancy, and lifetime counters.
type AdmissionStats struct {
	// MaxCost is the concurrent cost budget in cost units (one unit
	// per 50 000 wedge pairs of Stage-3 work); 0 = unlimited.
	MaxCost int64 `json:"max_cost"`
	// MaxInflight is the concurrent admitted-request bound; 0 = unlimited.
	MaxInflight int `json:"max_inflight"`
	// MaxQueue is the interactive wait-queue bound.
	MaxQueue int `json:"max_queue"`
	// MaxPerDataset bounds admitted Stage-3 passes per dataset;
	// 0 = unlimited.
	MaxPerDataset int `json:"max_per_dataset"`

	InflightCost     int64 `json:"inflight_cost"`
	InflightRequests int   `json:"inflight_requests"`
	QueueLength      int   `json:"queue_length"`

	AdmittedInteractive int64 `json:"admitted_interactive"`
	AdmittedBackground  int64 `json:"admitted_background"`
	ShedInteractive     int64 `json:"shed_interactive"`
	ShedBackground      int64 `json:"shed_background"`
	// ShedPerDataset counts requests shed because their dataset hit
	// its per-dataset quota (also included in the per-priority shed
	// counters above).
	ShedPerDataset int64 `json:"shed_per_dataset"`
	// Queued counts every admission that had to wait before being
	// granted or abandoned (not the live queue length).
	Queued int64 `json:"queued"`
	// QueueCancelled counts waiters whose context expired while queued.
	QueueCancelled int64 `json:"queue_cancelled"`
}

// admissionWaiter is one queued interactive acquisition.
type admissionWaiter struct {
	dataset string
	cost    int64
	ready   chan struct{} // closed on grant, with granted set under mu
	granted bool
}

// admission is a weighted semaphore bounding concurrent Stage-3 work by
// planner-estimated cost. Two limits compose: a cost budget (the sum of
// admitted requests' cost units, one per 50 000 wedge pairs of
// s-overlap work; see wedgePairsPerCostUnit) and a
// plain concurrent-request bound; a request is admitted only under
// both. Interactive requests past the limits wait in a bounded FIFO
// queue; background requests and queue overflow are shed immediately
// with a SaturatedError, so saturation turns into fast 429s instead of
// unbounded queueing. A zero limit means unlimited on that axis (the
// controller still counts admissions for observability).
type admission struct {
	mu            sync.Mutex
	maxCost       int64
	maxReqs       int
	maxQueue      int
	maxPerDataset int

	inflightCost int64
	inflightReqs int
	// perDataset counts admitted passes per dataset name; entries are
	// removed at zero so the map stays proportional to active load.
	perDataset map[string]int
	queue      []*admissionWaiter

	admitted       [2]int64
	shed           [2]int64
	shedDataset    int64
	queued         int64
	queueCancelled int64
}

// defaultMaxQueue bounds the interactive wait queue when limits are set
// but no queue depth was configured.
const defaultMaxQueue = 64

// newAdmission builds a controller; maxCost, maxReqs, and maxPerDataset
// of 0 mean unlimited, maxQueue of 0 takes the default.
func newAdmission(maxCost int64, maxReqs, maxQueue, maxPerDataset int) *admission {
	if maxQueue <= 0 {
		maxQueue = defaultMaxQueue
	}
	return &admission{
		maxCost:       maxCost,
		maxReqs:       maxReqs,
		maxQueue:      maxQueue,
		maxPerDataset: maxPerDataset,
		perDataset:    make(map[string]int),
	}
}

// clampCost bounds a request's estimated cost to the budget, so one
// oversized request can still run when the server is otherwise idle
// (it then occupies the whole budget instead of being unadmittable).
func (a *admission) clampCost(cost int64) int64 {
	if cost < 1 {
		cost = 1
	}
	if a.maxCost > 0 && cost > a.maxCost {
		cost = a.maxCost
	}
	return cost
}

// fitsLocked reports whether cost can be admitted right now.
func (a *admission) fitsLocked(cost int64) bool {
	if a.maxReqs > 0 && a.inflightReqs >= a.maxReqs {
		return false
	}
	if a.maxCost > 0 && a.inflightCost+cost > a.maxCost {
		return false
	}
	return true
}

// datasetFitsLocked reports whether dataset has per-dataset quota left.
func (a *admission) datasetFitsLocked(dataset string) bool {
	return a.maxPerDataset <= 0 || a.perDataset[dataset] < a.maxPerDataset
}

// Acquire admits one unit of Stage-3 work of the given estimated cost
// against the named dataset, blocking (interactive only, bounded queue,
// FIFO) until capacity is available or ctx expires. On success the
// returned release function must be called exactly once when the work
// finishes. On saturation it returns a *SaturatedError (errors.Is
// ErrSaturated). A dataset at its per-dataset quota sheds immediately —
// even interactive work — so a storm against one dataset turns into
// fast 429s without consuming queue slots other datasets could use.
func (a *admission) Acquire(ctx context.Context, pri Priority, dataset string, cost int64) (release func(), err error) {
	a.mu.Lock()
	cost = a.clampCost(cost)
	if !a.datasetFitsLocked(dataset) {
		a.shed[pri]++
		a.shedDataset++
		retry := a.retryAfterLocked()
		a.mu.Unlock()
		return nil, &SaturatedError{RetryAfter: retry}
	}
	// FIFO fairness: nobody overtakes existing waiters, and background
	// work is never admitted while interactive requests wait.
	if len(a.queue) == 0 && a.fitsLocked(cost) {
		a.admitLocked(pri, dataset, cost)
		a.mu.Unlock()
		return a.releaseFunc(dataset, cost), nil
	}
	if pri == PriorityBackground || len(a.queue) >= a.maxQueue {
		a.shed[pri]++
		retry := a.retryAfterLocked()
		a.mu.Unlock()
		return nil, &SaturatedError{RetryAfter: retry}
	}
	w := &admissionWaiter{dataset: dataset, cost: cost, ready: make(chan struct{})}
	a.queue = append(a.queue, w)
	a.queued++
	a.mu.Unlock()

	select {
	case <-w.ready:
		return a.releaseFunc(dataset, cost), nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.granted {
			// Granted concurrently with cancellation: the caller owns
			// the slot; downstream work will observe ctx and abort.
			a.mu.Unlock()
			return a.releaseFunc(dataset, cost), nil
		}
		for i, q := range a.queue {
			if q == w {
				a.queue = append(a.queue[:i], a.queue[i+1:]...)
				break
			}
		}
		a.queueCancelled++
		// Removing a waiter can unblock the (differently-sized) one
		// behind it.
		a.grantLocked()
		a.mu.Unlock()
		return nil, ctx.Err()
	}
}

// admitLocked records one admission.
func (a *admission) admitLocked(pri Priority, dataset string, cost int64) {
	a.inflightCost += cost
	a.inflightReqs++
	a.perDataset[dataset]++
	a.admitted[pri]++
}

// releaseFunc returns the idempotence-unchecked release closure for one
// admitted cost.
func (a *admission) releaseFunc(dataset string, cost int64) func() {
	return func() {
		a.mu.Lock()
		a.inflightCost -= cost
		a.inflightReqs--
		if a.perDataset[dataset]--; a.perDataset[dataset] <= 0 {
			delete(a.perDataset, dataset)
		}
		a.grantLocked()
		a.mu.Unlock()
	}
}

// grantLocked admits queued waiters in FIFO order while they fit. A
// waiter whose dataset is at quota is skipped (it keeps waiting — its
// dataset had quota when it enqueued and will again when a same-dataset
// release runs grantLocked), so one saturated dataset cannot
// head-block the queue for every other dataset.
func (a *admission) grantLocked() {
	for i := 0; i < len(a.queue); {
		w := a.queue[i]
		if !a.datasetFitsLocked(w.dataset) {
			i++
			continue
		}
		if !a.fitsLocked(w.cost) {
			break
		}
		a.queue = append(a.queue[:i], a.queue[i+1:]...)
		w.granted = true
		a.admitLocked(PriorityInteractive, w.dataset, w.cost)
		close(w.ready)
	}
}

// retryAfterLocked estimates how long a shed client should wait: the
// pending work (admitted + queued cost units, one per 50 000 wedge
// pairs, each taken as about a millisecond of Stage-3 time; see
// wedgePairsPerCostUnit) divided by the request-level parallelism,
// floored at one second — coarse by construction, but monotone in
// load, which is what backoff needs.
func (a *admission) retryAfterLocked() time.Duration {
	pending := a.inflightCost
	for _, w := range a.queue {
		pending += w.cost
	}
	par := int64(a.maxReqs)
	if par < 1 {
		par = 1
	}
	d := time.Duration(pending/par) * time.Millisecond
	if d < time.Second {
		d = time.Second
	}
	return d
}

// Stats snapshots the controller.
func (a *admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmissionStats{
		MaxCost:             a.maxCost,
		MaxInflight:         a.maxReqs,
		MaxQueue:            a.maxQueue,
		MaxPerDataset:       a.maxPerDataset,
		InflightCost:        a.inflightCost,
		InflightRequests:    a.inflightReqs,
		QueueLength:         len(a.queue),
		AdmittedInteractive: a.admitted[PriorityInteractive],
		AdmittedBackground:  a.admitted[PriorityBackground],
		ShedInteractive:     a.shed[PriorityInteractive],
		ShedBackground:      a.shed[PriorityBackground],
		ShedPerDataset:      a.shedDataset,
		Queued:              a.queued,
		QueueCancelled:      a.queueCancelled,
	}
}

// wedgePairsPerCostUnit converts the static planner statistic into
// admission cost units: one unit per 50k wedge pairs of Stage-3 work
// (roughly a millisecond at a deliberately conservative throughput, so
// estimates err toward admitting less under saturation).
const wedgePairsPerCostUnit = 50_000

// estimateCost prices a batch of uncached s values in admission cost
// units from the resolved configuration and the dataset's statistics
// alone: the planner's decision picks the strategy and the wedge-pair
// heuristic prices it. The same query on the same dataset version is
// priced the same whatever ran before it.
func estimateCost(cfg core.PipelineConfig, compute []int) int64 {
	distinct := core.DistinctS(compute)
	n := int64(len(distinct))
	if n == 0 {
		return 1
	}
	var st hg.Stats
	if cfg.Stats != nil {
		st = *cfg.Stats
	}
	dec := core.PlanQuery(st, distinct, cfg.Core)
	perS := st.WedgePairs / wedgePairsPerCostUnit
	if perS < 1 {
		perS = 1
	}
	if dec.Config.Algorithm == core.AlgoEnsemble {
		// One counting pass amortized over the whole batch.
		return perS
	}
	return perS * n
}
