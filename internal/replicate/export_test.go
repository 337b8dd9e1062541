package replicate

import "time"

// The package's stream tests wait on idle heartbeats; a short cadence keeps
// them quick.
func init() { heartbeat = 50 * time.Millisecond }

// Frame writes one journal record.
func (e *Encoder) Frame(lsn uint64, payload []byte) error { return e.msg(TypeFrame, lsn, payload) }
