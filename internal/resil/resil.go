// Package resil is the overload-resilience substrate of the serving
// stack: small, generic building blocks that decide — before any work
// is done — whether a request should run now, wait briefly, be retried,
// or be refused outright so the process stays within its capacity.
//
// The paper's zoom operators ran as offline Spark jobs where overload
// meant a longer batch; a serving system has no such luxury. Between
// "steady state" and "collapse" sits a narrow band where the only good
// moves are shedding excess load early and degrading gracefully, and
// this package implements the three standard mechanisms for that band:
//
//   - Limiter: a deadline-aware admission controller. At most
//     MaxInflight requests run concurrently; up to QueueDepth more wait
//     in strict FIFO order; everything beyond that is rejected
//     immediately (ErrSaturated), as is any request whose context
//     deadline would expire before it could plausibly be served
//     (ErrExpired, judged against an EWMA of observed service times).
//     Rejecting in O(1) is the point: a saturated server must spend its
//     cycles on requests it can finish, not on a queue it cannot drain.
//
//   - Breaker: a three-state (closed / open / half-open) circuit
//     breaker. Consecutive failures of the guarded operation trip it
//     open; while open every call is refused instantly (ErrOpen) so a
//     known-bad dependency is not hammered; after a cooldown a single
//     half-open probe is admitted, and its outcome either closes the
//     breaker or re-opens it for another cooldown. The clock is
//     injectable, so tests drive the state machine deterministically.
//
//   - RetryBudget: a token bucket that bounds retries to a fraction of
//     successful work. Each success deposits Ratio tokens; each retry
//     withdraws one. Under a full outage the bucket drains and retries
//     stop, preventing the classic retry storm that multiplies offered
//     load exactly when capacity is lowest.
//
// All three report to the process-wide obs registry:
//
//	resil.admit.admitted    requests admitted by a Limiter (counter)
//	resil.admit.rejected    requests shed: queue full (counter)
//	resil.admit.expired     requests shed: deadline before service (counter)
//	resil.admit.canceled    waiters whose context ended in the queue (counter)
//	resil.admit.inflight    currently admitted requests (gauge)
//	resil.admit.queued      currently queued waiters (gauge)
//	resil.admit.wait        time admitted requests spent queued (histogram)
//	resil.breaker.trips     closed/half-open → open transitions (counter)
//	resil.breaker.probes    half-open probes admitted (counter)
//	resil.breaker.rejections calls refused while open (counter)
//	resil.breaker.state.<name> current state, 0=closed 1=open 2=half-open (gauge)
//	resil.retry.allowed     retries granted by a RetryBudget (counter)
//	resil.retry.denied      retries refused by a RetryBudget (counter)
//
// The package depends only on the standard library and internal/obs, so
// any layer can use it without import cycles.
package resil

import "errors"

// Sentinel errors returned by the admission and breaker paths. They are
// compared with errors.Is, so wrapping them with context is fine.
var (
	// ErrSaturated is returned by Limiter.Acquire when the concurrency
	// limit and the wait queue are both full: the request is shed.
	ErrSaturated = errors.New("resil: admission queue full")
	// ErrExpired is returned by Limiter.Acquire when the request's
	// context deadline would expire before the limiter could plausibly
	// start serving it (based on the queue length and the EWMA of
	// observed service times): queueing it would only waste a slot.
	ErrExpired = errors.New("resil: deadline would expire before service")
	// ErrOpen is returned by Breaker.Do while the breaker is open (or
	// half-open with its probe already in flight): the guarded
	// operation was not attempted.
	ErrOpen = errors.New("resil: circuit open")
)
