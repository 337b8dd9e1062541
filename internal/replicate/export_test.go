package replicate

// Frame writes one journal record.
func (e *Encoder) Frame(lsn uint64, payload []byte) error { return e.msg(TypeFrame, lsn, payload) }
