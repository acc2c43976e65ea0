package main

import (
	"math/rand"
	"slices"
	"time"
)

// openRate is the arrival rate, per second, of the open-loop segment of a
// traced run.
const openRate = 100

// schedule draws the arrival times of an open-loop segment: rate × dur
// offsets, uniform over the segment and sorted — a Poisson process
// conditioned on its count, so every seed sends exactly the same number of
// requests.
func schedule(seed int64, rate int, dur time.Duration) []time.Duration {
	r := rand.New(rand.NewSource(seed ^ 0x0a11))
	due := make([]time.Duration, int(float64(rate)*dur.Seconds()))
	for i := range due {
		due[i] = time.Duration(r.Int63n(int64(dur)))
	}
	slices.Sort(due)
	return due
}

// openResult is what an open-loop segment measured.
type openResult struct {
	lat    [numClasses][]float64 // ms from due time to return
	late   []float64             // ms from due time to send, for arrivals that found the caller idle
	failed int
	missed int // failed, or later than the class's latency limit counted from due time
}

// runOpen sends operations first, first+1, … at the scheduled times over one
// connection and times each from when it was due, not from when it was sent:
// an arrival that falls inside an earlier operation waits for it, and that
// wait is part of its latency. internal/loadgen starts its clock at send,
// which hides exactly this queueing, so it is not used here. How late the
// generator itself ran is reported from the arrivals that found the caller
// idle; for the others the gap between due and send is queueing, not
// lateness.
func runOpen(spec *workloadSpec, w workload, first int, sched []time.Duration) openResult {
	var r openResult
	begin := time.Now()
	for i, off := range sched {
		due := begin.Add(off)
		idle := waitUntil(due)
		o := w.op(first + i)
		lat := ms(o.done.Sub(due))
		r.lat[o.class] = append(r.lat[o.class], lat)
		if idle {
			r.late = append(r.late, ms(o.start.Sub(due)))
		}
		if !o.ok {
			r.failed++
		}
		if !o.ok || lat > spec.limitMS[o.class] {
			r.missed++
		}
	}
	return r
}

// spinLead is how long before a due time waitUntil stops sleeping and spins:
// on the target time.Sleep alone woke 0.2 ms late at the median and 1.5 ms
// at worst, and a warm read takes 0.4 ms.
const spinLead = 2 * time.Millisecond

// waitUntil returns at t — at once when t has passed — and reports whether
// it had to wait.
func waitUntil(t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return false
	}
	if d > spinLead {
		time.Sleep(d - spinLead)
	}
	for time.Now().Before(t) {
	}
	return true
}
