package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hyperline/internal/core"
)

// acquireOrTimeout runs Acquire under a watchdog so a bug cannot hang
// the whole test binary.
func acquireOrTimeout(t *testing.T, a *admission, pri Priority, cost int64) func() {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	release, err := a.Acquire(ctx, pri, "ds", cost)
	if err != nil {
		t.Fatalf("Acquire(%v, %d): %v", pri, cost, err)
	}
	return release
}

func TestAdmissionUnlimitedAdmitsEverything(t *testing.T) {
	a := newAdmission(0, 0, 0, 0)
	var releases []func()
	for i := 0; i < 100; i++ {
		pri := PriorityInteractive
		if i%2 == 1 {
			pri = PriorityBackground
		}
		releases = append(releases, acquireOrTimeout(t, a, pri, int64(i)))
	}
	st := a.Stats()
	if st.AdmittedInteractive != 50 || st.AdmittedBackground != 50 {
		t.Fatalf("admitted %d/%d, want 50/50", st.AdmittedInteractive, st.AdmittedBackground)
	}
	if st.ShedInteractive+st.ShedBackground != 0 {
		t.Fatalf("unlimited controller shed work: %+v", st)
	}
	for _, r := range releases {
		r()
	}
	if st := a.Stats(); st.InflightCost != 0 || st.InflightRequests != 0 {
		t.Fatalf("inflight not drained: %+v", st)
	}
}

func TestAdmissionQueuesInteractiveFIFO(t *testing.T) {
	a := newAdmission(0, 1, 8, 0)
	r1 := acquireOrTimeout(t, a, PriorityInteractive, 1)

	// Two waiters queue behind the occupant; grants must come back in
	// arrival order.
	order := make(chan int, 2)
	var wg sync.WaitGroup
	start := func(id int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := a.Acquire(context.Background(), PriorityInteractive, "ds", 1)
			if err != nil {
				t.Errorf("waiter %d: %v", id, err)
				return
			}
			order <- id
			release()
		}()
	}
	start(1)
	waitForQueue(t, a, 1)
	start(2)
	waitForQueue(t, a, 2)

	r1()
	wg.Wait()
	if first, second := <-order, <-order; first != 1 || second != 2 {
		t.Fatalf("grant order %d,%d, want 1,2", first, second)
	}
	st := a.Stats()
	if st.Queued != 2 {
		t.Fatalf("queued counter %d, want 2", st.Queued)
	}
	if st.InflightRequests != 0 || st.QueueLength != 0 {
		t.Fatalf("not drained: %+v", st)
	}
}

// waitForQueue spins until the controller reports n queued waiters.
func waitForQueue(t *testing.T, a *admission, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().QueueLength != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d: %+v", n, a.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestAdmissionShedsBackgroundImmediately(t *testing.T) {
	a := newAdmission(0, 1, 8, 0)
	r := acquireOrTimeout(t, a, PriorityInteractive, 1)
	defer r()

	_, err := a.Acquire(context.Background(), PriorityBackground, "ds", 1)
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("background under saturation: err=%v, want ErrSaturated", err)
	}
	var sat *SaturatedError
	if !errors.As(err, &sat) || sat.RetryAfter < time.Second {
		t.Fatalf("want *SaturatedError with RetryAfter >= 1s, got %#v", err)
	}
	if st := a.Stats(); st.ShedBackground != 1 {
		t.Fatalf("shed counters %+v, want ShedBackground=1", st)
	}
}

func TestAdmissionBackgroundNeverOvertakesWaiters(t *testing.T) {
	// Budget has room for the background request, but an interactive
	// waiter is queued (blocked on the request bound): background must
	// still be shed, not slipped in ahead.
	a := newAdmission(100, 1, 8, 0)
	r := acquireOrTimeout(t, a, PriorityInteractive, 1)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		release, err := a.Acquire(context.Background(), PriorityInteractive, "ds", 1)
		if err != nil {
			t.Errorf("queued waiter: %v", err)
			return
		}
		release()
	}()
	waitForQueue(t, a, 1)

	if _, err := a.Acquire(context.Background(), PriorityBackground, "ds", 1); !errors.Is(err, ErrSaturated) {
		t.Fatalf("background with queued interactive waiter: err=%v, want ErrSaturated", err)
	}
	r()
	wg.Wait()
}

func TestAdmissionQueueOverflowSheds(t *testing.T) {
	a := newAdmission(0, 1, 1, 0)
	r := acquireOrTimeout(t, a, PriorityInteractive, 1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if release, err := a.Acquire(ctx, PriorityInteractive, "ds", 1); err == nil {
			release()
		}
	}()
	waitForQueue(t, a, 1)

	if _, err := a.Acquire(context.Background(), PriorityInteractive, "ds", 1); !errors.Is(err, ErrSaturated) {
		t.Fatalf("queue overflow: err=%v, want ErrSaturated", err)
	}
	if st := a.Stats(); st.ShedInteractive != 1 {
		t.Fatalf("shed counters %+v, want ShedInteractive=1", st)
	}
	r()
	wg.Wait()
}

func TestAdmissionCancelWhileQueued(t *testing.T) {
	a := newAdmission(0, 1, 8, 0)
	r := acquireOrTimeout(t, a, PriorityInteractive, 1)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx, PriorityInteractive, "ds", 1)
		errc <- err
	}()
	waitForQueue(t, a, 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err=%v, want context.Canceled", err)
	}
	st := a.Stats()
	if st.QueueCancelled != 1 || st.QueueLength != 0 {
		t.Fatalf("after cancel: %+v, want QueueCancelled=1, empty queue", st)
	}

	// The slot must still be grantable after the abandoned wait.
	r()
	acquireOrTimeout(t, a, PriorityInteractive, 1)()
}

func TestAdmissionCostBudgetAndClamp(t *testing.T) {
	a := newAdmission(10, 0, 8, 0)

	// An oversized request clamps to the whole budget rather than being
	// forever unadmittable.
	r := acquireOrTimeout(t, a, PriorityInteractive, 1_000_000)
	if st := a.Stats(); st.InflightCost != 10 {
		t.Fatalf("clamped inflight cost %d, want 10", st.InflightCost)
	}
	// Nothing else fits while the budget is occupied.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := a.Acquire(ctx, PriorityInteractive, "ds", 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("budget-full acquire: err=%v, want deadline exceeded", err)
	}
	r()

	// Partial occupancy: 6+4 fits, 6+5 queues.
	r6 := acquireOrTimeout(t, a, PriorityInteractive, 6)
	r4 := acquireOrTimeout(t, a, PriorityInteractive, 4)
	if _, err := a.Acquire(context.Background(), PriorityBackground, "ds", 1); !errors.Is(err, ErrSaturated) {
		t.Fatalf("background over budget: err=%v, want ErrSaturated", err)
	}
	r6()
	r4()
	if st := a.Stats(); st.InflightCost != 0 {
		t.Fatalf("cost not drained: %+v", st)
	}
}

// TestAdmissionConcurrentChurn hammers one controller from many
// goroutines with mixed priorities, random costs, and random
// cancellation, then checks the books balance. Run under -race this is
// the memory-safety test for the queue manipulation.
func TestAdmissionConcurrentChurn(t *testing.T) {
	a := newAdmission(32, 4, 16, 0)
	const workers = 16
	const perWorker = 200

	var wg sync.WaitGroup
	var attempts, granted, shed, cancelled int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var g, s, c int64
			for i := 0; i < perWorker; i++ {
				pri := PriorityInteractive
				if rng.Intn(4) == 0 {
					pri = PriorityBackground
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(200))*time.Microsecond)
				release, err := a.Acquire(ctx, pri, "ds", int64(rng.Intn(12)))
				switch {
				case err == nil:
					time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
					release()
					g++
				case errors.Is(err, ErrSaturated):
					s++
				case errors.Is(err, context.DeadlineExceeded):
					c++
				default:
					t.Errorf("unexpected error %v", err)
				}
				cancel()
			}
			mu.Lock()
			attempts += perWorker
			granted += g
			shed += s
			cancelled += c
			mu.Unlock()
		}(int64(w))
	}
	wg.Wait()

	st := a.Stats()
	if st.InflightCost != 0 || st.InflightRequests != 0 || st.QueueLength != 0 {
		t.Fatalf("controller not drained after churn: %+v", st)
	}
	if got := granted + shed + cancelled; got != attempts {
		t.Fatalf("outcomes %d (granted %d + shed %d + cancelled %d) != attempts %d",
			got, granted, shed, cancelled, attempts)
	}
	if stGranted := st.AdmittedInteractive + st.AdmittedBackground; stGranted != granted {
		t.Fatalf("controller admitted %d, callers saw %d grants", stGranted, granted)
	}
	if stShed := st.ShedInteractive + st.ShedBackground; stShed != shed {
		t.Fatalf("controller shed %d, callers saw %d sheds", stShed, shed)
	}
	if st.QueueCancelled != cancelled {
		t.Fatalf("controller cancelled %d, callers saw %d", st.QueueCancelled, cancelled)
	}
}

func TestAdmissionPerDatasetQuotaShedsImmediately(t *testing.T) {
	a := newAdmission(0, 0, 0, 2)
	r1 := acquireOrTimeout(t, a, PriorityInteractive, 1)
	r2 := acquireOrTimeout(t, a, PriorityInteractive, 1)

	// "ds" is at quota: even interactive work sheds immediately instead
	// of queueing, with the usual retryable saturation error.
	_, err := a.Acquire(context.Background(), PriorityInteractive, "ds", 1)
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("dataset at quota: err=%v, want ErrSaturated", err)
	}
	var sat *SaturatedError
	if !errors.As(err, &sat) || sat.RetryAfter < time.Second {
		t.Fatalf("want *SaturatedError with RetryAfter >= 1s, got %#v", err)
	}
	if st := a.Stats(); st.ShedPerDataset != 1 || st.ShedInteractive != 1 {
		t.Fatalf("shed counters %+v, want ShedPerDataset=1 ShedInteractive=1", st)
	}

	// Other datasets are unaffected by one dataset's saturation.
	rOther, err := a.Acquire(context.Background(), PriorityInteractive, "other", 1)
	if err != nil {
		t.Fatalf("other dataset under quota: %v", err)
	}
	rOther()

	// Releasing a slot restores the dataset's quota.
	r1()
	r3, err := a.Acquire(context.Background(), PriorityInteractive, "ds", 1)
	if err != nil {
		t.Fatalf("after release: %v", err)
	}
	r3()
	r2()
	if st := a.Stats(); st.InflightRequests != 0 {
		t.Fatalf("not drained: %+v", st)
	}
}

func TestAdmissionQuotaDoesNotHeadBlockQueue(t *testing.T) {
	// Two global slots, one per dataset. Occupy both slots with "a" and
	// "c", then queue [b, b, d]. The first release grants the first "b";
	// the second release must skip the now-at-quota second "b" and grant
	// "d" behind it — a saturated dataset cannot head-block the queue.
	a := newAdmission(0, 2, 8, 1)
	releaseA, err := a.Acquire(context.Background(), PriorityInteractive, "a", 1)
	if err != nil {
		t.Fatal(err)
	}
	releaseC, err := a.Acquire(context.Background(), PriorityInteractive, "c", 1)
	if err != nil {
		t.Fatal(err)
	}

	grantOrder := make(chan string, 3)
	releases := make(chan func(), 3)
	enqueue := func(ds string) {
		go func() {
			release, err := a.Acquire(context.Background(), PriorityInteractive, ds, 1)
			if err != nil {
				t.Errorf("waiter %s: %v", ds, err)
				return
			}
			grantOrder <- ds
			releases <- release
		}()
	}
	recv := func(want string) {
		t.Helper()
		select {
		case ds := <-grantOrder:
			if ds != want {
				t.Fatalf("granted %q, want %q", ds, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no grant within 5s waiting for %q", want)
		}
	}
	enqueue("b")
	waitForQueue(t, a, 1)
	enqueue("b")
	waitForQueue(t, a, 2)
	enqueue("d")
	waitForQueue(t, a, 3)

	releaseA()
	recv("b") // FIFO head
	releaseC()
	recv("d") // second "b" is quota-blocked and skipped, not head-blocking
	if st := a.Stats(); st.QueueLength != 1 {
		t.Fatalf("queue length %d, want 1 (the quota-blocked waiter)", st.QueueLength)
	}

	// Releasing the first "b" finally grants the skipped waiter.
	(<-releases)()
	recv("b")
	(<-releases)()
	(<-releases)()
	if st := a.Stats(); st.InflightRequests != 0 || st.QueueLength != 0 {
		t.Fatalf("not drained: %+v", st)
	}
}

func TestEstimateCostFloorsAtOne(t *testing.T) {
	// No stats, no calibration: the estimate must still be a positive
	// cost so admission accounting never divides by or admits zero.
	if got := estimateCost(core.PipelineConfig{}, nil); got != 1 {
		t.Fatalf("estimateCost(empty) = %d, want 1", got)
	}
	if got := estimateCost(core.PipelineConfig{}, []int{2}); got < 1 {
		t.Fatalf("estimateCost = %d, want >= 1", got)
	}
	// More s values never cost less.
	one := estimateCost(core.PipelineConfig{}, []int{2})
	many := estimateCost(core.PipelineConfig{}, []int{1, 2, 3, 4})
	if many < one {
		t.Fatalf("batch of 4 costs %d < single %d", many, one)
	}
}

// TestEstimateCostIgnoresHistory: admission prices a query from the
// served configuration and the dataset's statistics alone, so the
// same query on the same dataset version costs the same before any
// Stage-3 pass and after several. The passes run at s above every
// hyperedge size, so each takes next to no time: a price learned from
// them would differ from the wedge-pair estimate.
func TestEstimateCostIgnoresHistory(t *testing.T) {
	svc := New(Config{})
	h := randomHypergraph(7, 2000, 50, 4)
	svc.Add("h", h)
	_, v, err := svc.reg.Get("h")
	if err != nil {
		t.Fatal(err)
	}
	price := func() int64 {
		cfg := svc.configAt(v, "h", false, 0)
		if cfg.Stats == nil || cfg.Stats.WedgePairs < 10*wedgePairsPerCostUnit {
			t.Fatalf("dataset stats %+v: want WedgePairs >= %d", cfg.Stats, 10*wedgePairsPerCostUnit)
		}
		return estimateCost(cfg, []int{20})
	}

	before := price()
	for _, sVal := range []int{17, 18, 19} {
		mustQuery(t, svc, lineQ("h", core.PipelineConfig{}, sVal))
	}
	if after := price(); after != before {
		t.Fatalf("estimateCost after three passes = %d, before any = %d", after, before)
	}
}
