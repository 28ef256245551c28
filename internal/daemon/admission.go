package daemon

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// admission is the server's overload valve: a semaphore bounds how many
// batch requests execute concurrently, and a short deadline-aware queue
// absorbs bursts. Anything beyond slots+queue — or anything that would wait
// past its own deadline — is shed immediately with 429 + Retry-After, so
// under overload the daemon degrades to fast, honest rejections instead of
// stacking goroutines until everything times out. Draining flips the same
// valve shut: readiness goes false and new work is shed while in-flight
// batches finish.
type admission struct {
	slots chan struct{} // in-flight execution permits
	queue chan struct{} // waiting-room positions
	wait  time.Duration // longest a request may wait for a permit

	draining atomic.Bool
	inFlight atomic.Int64
	queued   atomic.Int64

	admitted, queuedTotal, shed stats.Counter
}

// admissionFields names the valve's counters and gauges for the metrics
// registry.
var admissionFields = stats.Fields[admission]{
	stats.NewField("admission_admitted", stats.KindCounter, "Batch requests admitted.", func(a *admission) int64 { return a.admitted.Load() }),
	stats.NewField("admission_queued_total", stats.KindCounter, "Batch requests that waited in the admission queue.", func(a *admission) int64 { return a.queuedTotal.Load() }),
	stats.NewField("admission_shed", stats.KindCounter, "Batch requests shed with 429 or 503.", func(a *admission) int64 { return a.shed.Load() }),
	stats.NewField("admission_in_flight", stats.KindGauge, "Batch requests executing now.", func(a *admission) int64 { return a.inFlight.Load() }),
	stats.NewField("admission_queued", stats.KindGauge, "Batch requests waiting for a slot now.", func(a *admission) int64 { return a.queued.Load() }),
	stats.NewField("draining", stats.KindGauge, "1 while the server drains.", func(a *admission) int64 { return stats.Flag(a.draining.Load()) }),
	stats.NewField("ready", stats.KindGauge, "1 while new batch work would be admitted.", func(a *admission) int64 { return stats.Flag(a.ready()) }),
}

// newAdmission sizes the valve: maxInFlight concurrent batches, queueDepth
// waiting positions, wait as the queue's patience.
func newAdmission(maxInFlight, queueDepth int, wait time.Duration) *admission {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	if wait <= 0 {
		wait = time.Second
	}
	return &admission{
		slots: make(chan struct{}, maxInFlight),
		queue: make(chan struct{}, queueDepth),
		wait:  wait,
	}
}

// acquire tries to admit one request. It returns a release closure and true
// on admission; nil and false when the request was shed (draining, queue
// full, queue wait exhausted, or the request's own deadline closer than any
// useful wait).
func (a *admission) acquire(ctx context.Context) (func(), bool) {
	if a.draining.Load() {
		a.shed.Inc()
		return nil, false
	}
	release := func() {
		<-a.slots
		a.inFlight.Add(-1)
	}
	// Fast path: a free execution slot, no queueing.
	select {
	case a.slots <- struct{}{}:
		a.inFlight.Add(1)
		a.admitted.Inc()
		return release, true
	default:
	}
	// Saturated: take a waiting-room position or shed.
	select {
	case a.queue <- struct{}{}:
	default:
		a.shed.Inc()
		return nil, false
	}
	a.queuedTotal.Inc()
	a.queued.Add(1)
	defer func() {
		<-a.queue
		a.queued.Add(-1)
	}()
	// Wait for a slot, but never longer than the queue's patience or the
	// caller's own deadline — serving a request its client already gave up
	// on is the slowest possible way to shed it.
	timer := time.NewTimer(a.wait)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		if a.draining.Load() {
			// Drain began while we queued: hand the slot back and shed.
			<-a.slots
			a.shed.Inc()
			return nil, false
		}
		a.inFlight.Add(1)
		a.admitted.Inc()
		return release, true
	case <-timer.C:
		a.shed.Inc()
		return nil, false
	case <-ctx.Done():
		a.shed.Inc()
		return nil, false
	}
}

// ready reports whether the valve would admit new work without shedding:
// not draining, and slots or queue positions are open. Load balancers read
// this through the /healthz readiness probe.
func (a *admission) ready() bool {
	if a.draining.Load() {
		return false
	}
	return len(a.slots) < cap(a.slots) || len(a.queue) < cap(a.queue)
}

// drain flips the valve shut for new work; in-flight requests finish.
func (a *admission) drain() { a.draining.Store(true) }
