// Package faultinject is the fault-injection harness behind the
// replication and durability gauntlets. It deliberately breaks the
// substrates gridschedd depends on, on cue and deterministically:
//
//   - File wraps a journal.File and fails writes or fsyncs on demand,
//     proving the writer poisons itself instead of acknowledging records
//     the log did not keep.
//   - Conn / Listener / Proxy wrap net connections with droppable,
//     delayable, partitionable behavior, so tests can blackhole a
//     replication stream without the kernel's help.
//   - Proc runs a subprocess under kill -9 control, the only honest way
//     to test crash recovery and leader failover.
//   - Steps stops a multi-step durable operation (a checkpoint) at a
//     named step boundary, so every crash ordering between its fsyncs and
//     renames is reachable on demand rather than by racing a kill.
//
// Everything here is test infrastructure: no production code path
// imports this package.
package faultinject

import "errors"

// ErrInjected is the error returned by every injected failure, so tests
// can assert the failure they caused is the failure they observed.
var ErrInjected = errors.New("faultinject: injected fault")
