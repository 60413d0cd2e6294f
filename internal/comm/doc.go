// Package comm provides the in-memory message transport underneath the
// AMT runtime: per-rank unbounded inboxes with blocking, non-blocking
// and batched receive (RecvBatch drains a whole burst under one lock
// acquisition), per-sender FIFO ordering, and optional payload byte
// accounting. Deadline waits reuse a single timer per inbox rather than
// arming a fresh one per call, so retry-heavy fault runs do not churn
// the timer heap. It substitutes for the MPI layer of the paper's vt runtime;
// everything above it (active messages, epochs, termination detection,
// collectives) is implemented for real on top of this transport.
//
// The transport doubles as a fault harness: a fault.Spec installed with
// SetFaults makes it drop, duplicate, delay or straggle messages under
// the stateless seeded per-message dice of internal/fault, so
// a given plan injects the same faults on every run regardless of
// goroutine scheduling. An absent plan leaves the fault-free fast path
// untouched. Recovery is not this package's job — internal/amt layers
// ack/retry and deduplication on top (see DESIGN.md §7).
//
// # Concurrency
//
// The inboxes are the concurrency boundary of the whole distributed
// stack and are fully goroutine-safe: any goroutine may Send to any
// rank while that rank's goroutine blocks in Recv, and per-sender FIFO
// order is preserved. Everything layered above (amt, termination, the
// distributed balancer) relies on this package for cross-rank safety
// and keeps its own state single-goroutine.
package comm
