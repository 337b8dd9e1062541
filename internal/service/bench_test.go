package service_test

import (
	"fmt"
	"testing"

	"gridsched/internal/benchsuite"
	"gridsched/internal/journal"
)

// The benchmark bodies live in internal/benchsuite, shared with
// cmd/gridbench so the recorded perf trajectory measures exactly what CI
// smoke-runs here.

// BenchmarkDispatchRoundTripInProcess: protocol + JSON codec + scheduler,
// no sockets.
func BenchmarkDispatchRoundTripInProcess(b *testing.B) {
	benchsuite.ServiceDispatchInProcess(b)
}

// BenchmarkDispatchRoundTripIngress: the same round-trip behind the full
// production middleware chain (trace IDs, recovery, auth, rate limit,
// shedder) with nothing rejecting — the delta against
// BenchmarkDispatchRoundTripInProcess is the chain's no-shed overhead
// (acceptance bar: ≤5%).
func BenchmarkDispatchRoundTripIngress(b *testing.B) {
	benchsuite.ServiceDispatchIngress(b)
}

// BenchmarkDispatchRoundTripContended: six tenant-weighted jobs resident
// at once, so every pull exercises the fair-share arbiter across a
// contended job set.
func BenchmarkDispatchRoundTripContended(b *testing.B) {
	benchsuite.ServiceDispatchContended(b)
}

// BenchmarkDispatchSpeculative: one full straggler-mitigation cycle per
// iteration — sweep staging, speculative twin grant, winning report,
// cancelled-primary report — against the Service API directly (no
// transport codec), isolating the speculation machinery's cost.
func BenchmarkDispatchSpeculative(b *testing.B) {
	benchsuite.ServiceDispatchSpeculative(b)
}

// BenchmarkServiceDispatchParallel: 8 concurrent workers × 8 resident
// jobs against the Service API, at stripe counts bracketing the
// single-lock baseline (shards=1) and the sharded core (shards=8). The
// ISSUE-5 acceptance bar reads the shards=8 / shards=1 throughput ratio
// on a multi-core runner.
func BenchmarkServiceDispatchParallel(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), benchsuite.ServiceDispatchParallel(shards))
	}
}

// BenchmarkDispatchRoundTripTCP: the same path over loopback HTTP.
func BenchmarkDispatchRoundTripTCP(b *testing.B) {
	benchsuite.ServiceDispatchWireJSON(b)
}

// BenchmarkServiceDispatchWire: the ISSUE-8 wire-speed comparison over
// real TCP — classic JSON long-poll (two HTTP round trips per task)
// against the streaming lease channel with batched binary reports. The
// acceptance bar reads stream at ≥3× the jsonpoll throughput with ≥5×
// fewer allocs/op; BENCH_PR8.json records both.
func BenchmarkServiceDispatchWire(b *testing.B) {
	b.Run("jsonpoll", benchsuite.ServiceDispatchWireJSON)
	b.Run("stream", benchsuite.ServiceDispatchWireStream)
}

// BenchmarkDispatchRoundTripJournaledBatch: in-process dispatch with the
// write-ahead journal at -fsync=batch — the acceptance bar is within 2x of
// BenchmarkDispatchRoundTripInProcess (see PERFORMANCE.md).
func BenchmarkDispatchRoundTripJournaledBatch(b *testing.B) {
	benchsuite.ServiceDispatchJournaled(journal.SyncBatch)(b)
}

// BenchmarkDispatchRoundTripJournaledAlways: every acknowledgement behind
// a (group-committed) fsync; the machine-crash-durable configuration.
func BenchmarkDispatchRoundTripJournaledAlways(b *testing.B) {
	benchsuite.ServiceDispatchJournaled(journal.SyncAlways)(b)
}

// BenchmarkServiceDispatchPartitioned: the ISSUE-10 horizontal scale-out
// comparison — aggregate durable (fsync-per-frame) dispatch throughput
// over real TCP with 1, 2, and 4 independent partitions, one streaming
// binary-codec worker each. BENCH_PR10.json records the curve; the
// ≥1.7× claim for parts=2 is unmeasured on the recording hosts.
func BenchmarkServiceDispatchPartitioned(b *testing.B) {
	for _, parts := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parts=%d", parts), benchsuite.ServiceDispatchPartitioned(parts))
	}
}
