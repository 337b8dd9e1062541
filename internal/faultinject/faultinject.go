// Package faultinject is the fault-injection harness behind the
// replication and durability gauntlets. It deliberately breaks the
// substrates gridschedd depends on, on cue and deterministically:
//
//   - File wraps a journal.File and fails writes or fsyncs on demand,
//     proving the writer poisons itself instead of acknowledging records
//     the log did not keep.
//   - Proxy is a TCP proxy whose connections (Conn) can be cut all at once
//     or made to fail fast, so tests can sever a lease stream or take an
//     endpoint down without the kernel's help.
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
