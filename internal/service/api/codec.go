// codec.go is the shared encode/decode layer behind both wire formats.
// JSON stays the debuggable default; the binary codec below is the
// wire-speed format for the dispatch hot path (pull/report/submit and the
// lease stream), negotiated per request via Content-Type/Accept. Both
// codecs marshal exactly the structs in api.go: JSON from their struct
// tags, binary from one field list per message, which a Coder walks to
// encode and walks again to decode — so the two directions of a layout
// cannot drift apart, and there is no separate schema to drift from. The
// same Coder writes everything gridschedd keeps on disk (the service
// package's journal records and checkpoint manifest, and the stored
// workload below), each under its own header.
//
// Binary layout: every message is
//
//	'G' 0x03 <msg-type byte> <fields...>
//
// with zigzag varint for integers (a task's file ids as the differences
// between neighbours), uvarint for lengths and counts,
// length-prefixed strings and blobs, a 0/1 byte for booleans and
// optional-field markers, and one enum byte for the small closed string
// sets (pull status, heartbeat state, outcome, job state). Decoding is
// strict, and one value has one encoding: unknown message types, unknown
// enum bytes, truncated fields, oversized lengths, padded varints, integers
// their field cannot hold, and trailing garbage are all errors — never a
// guess. Stream frames are uvarint(len) + payload (AppendFrame/ReadFrame).
package api

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"reflect"
	"strings"

	"gridsched/internal/workload"
)

// Content types for codec negotiation. A client that wants binary replies
// sends Accept: ContentTypeBinary (and may send binary request bodies
// under Content-Type: ContentTypeBinary); the server answers in kind or
// stays with JSON. Stream responses use the +stream variants so a capture
// is self-describing about framing.
const (
	ContentTypeJSON         = "application/json"
	ContentTypeBinary       = "application/x-gridsched-bin"
	ContentTypeStreamJSON   = "application/x-gridsched-stream+json"
	ContentTypeStreamBinary = "application/x-gridsched-stream+bin"
)

// Codec marshals the api structs for one wire format.
type Codec interface {
	// ContentType is the MIME type this codec negotiates under.
	ContentType() string
	// Supports reports whether v's type is encodable by this codec. JSON
	// supports everything; Binary supports exactly the hot-path messages.
	Supports(v any) bool
	Marshal(v any) ([]byte, error)
	Unmarshal(data []byte, v any) error
}

// JSON and Binary are the two codecs every endpoint negotiates between.
var (
	JSON   Codec = jsonCodec{}
	Binary Codec = binaryCodec{}
)

const (
	binMagic = 'G'
	// binVersion 3 codes a task's file ids as differences (Coder.files);
	// version 2 had appended the context-aware scheduling fields. The
	// decoder is strict, so older captures are rejected rather than
	// misparsed.
	binVersion = 3
)

// storedWorkloadHeader heads a stored workload (EncodeWorkload). Stored
// documents outlive the process that wrote them, so they carry their own
// magic and version rather than the wire's: a binVersion bump that leaves
// the workload fields alone must not orphan every data dir. Changing
// Coder.Workload's field list means bumping the last byte here; the
// previous version is then refused by name (ErrLegacyFormat), never read.
// Version 2 codes file ids as differences.
var storedWorkloadHeader = []byte{'G', 'W', 2}

// legacyWorkloadHeader heads a stored workload an older gridschedd wrote,
// its file ids each a varint of its own.
var legacyWorkloadHeader = []byte{'G', 'W', 1}

// ErrLegacyFormat refuses what only an older gridschedd wrote to its data
// dir: a stored workload here, and the service's journal records and
// manifests. Such a data dir cannot be upgraded in place.
var ErrLegacyFormat = errors.New("written by a gridschedd older than disk format 4, which this binary does not read; " +
	"finish the data dir's jobs with the binary that wrote it, then start this one on an empty -data-dir")

// MaxFramePayload bounds one stream frame (and one binary message read
// through ReadFrame): large enough for any real lease batch, small enough
// that a corrupt length prefix cannot ask for gigabytes.
const MaxFramePayload = 16 << 20

// AppendFrame appends payload to dst as one stream frame
// (uvarint length + bytes) and returns the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// ReadFrame reads one stream frame, returning its payload. It returns
// io.EOF only on a clean boundary (no bytes of the next frame read);
// a frame truncated mid-payload is io.ErrUnexpectedEOF.
func ReadFrame(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > MaxFramePayload {
		return nil, fmt.Errorf("api: frame length %d exceeds limit %d", n, MaxFramePayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// WriteJSON answers with status code and v as its JSON body. Every JSON
// reply the servers write goes through it, error bodies (ErrorResponse)
// included.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// IsBinary reports whether a Content-Type names the binary codec.
func IsBinary(contentType string) bool {
	return contentType == ContentTypeBinary || contentType == ContentTypeStreamBinary
}

// AcceptsBinary reports whether an Accept header asks for binary replies.
// The header is a comma-separated preference list; any mention of the
// binary type opts in (the client controls the header, so exact-name
// matching per element is enough — no q-value arithmetic).
func AcceptsBinary(accept string) bool {
	for part := range strings.SplitSeq(accept, ",") {
		if name, _, _ := strings.Cut(part, ";"); strings.TrimSpace(name) == ContentTypeBinary {
			return true
		}
	}
	return false
}

type jsonCodec struct{}

func (jsonCodec) ContentType() string             { return ContentTypeJSON }
func (jsonCodec) Supports(any) bool               { return true }
func (jsonCodec) Marshal(v any) ([]byte, error)   { return json.Marshal(v) }
func (jsonCodec) Unmarshal(d []byte, v any) error { return json.Unmarshal(d, v) }

type binaryCodec struct{}

func (binaryCodec) ContentType() string { return ContentTypeBinary }

func (binaryCodec) Supports(v any) bool { return (*Coder)(nil).message(addressed(v)) }

func (binaryCodec) Marshal(v any) ([]byte, error) {
	c := NewEncoder(make([]byte, 0, 64))
	if !c.message(addressed(v)) {
		return nil, fmt.Errorf("api: binary codec does not encode %T", v)
	}
	return c.Out()
}

func (binaryCodec) Unmarshal(data []byte, v any) error {
	c := NewDecoder(data)
	if !c.message(v) {
		return fmt.Errorf("api: binary codec does not decode %T", v)
	}
	return c.End("binary message")
}

// addressed returns a message passed by value as a pointer to a copy, the
// form the message table names; anything else comes back as it is.
// Encoding only reads its message, so walking the copy changes nothing.
func addressed(v any) any {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Struct {
		return v
	}
	p := reflect.New(rv.Type())
	p.Elem().Set(rv)
	return p.Interface()
}

// EncodeWorkload renders w as a standalone binary document:
// storedWorkloadHeader followed by the workload fields exactly as a binary
// SubmitJobRequest carries them.
func EncodeWorkload(w *workload.Workload) []byte {
	// Coadd-shaped workloads run ~1.2 bytes per file reference; reserve
	// from the task count so the common case does not grow the buffer.
	c := NewEncoder(append(make([]byte, 0, 64+len(w.Name)+128*len(w.Tasks)), storedWorkloadHeader...))
	c.Workload(w)
	return c.b
}

// DecodeWorkload is EncodeWorkload's strict inverse: wrong header,
// truncation, and trailing bytes are all errors, and an older version's
// header is ErrLegacyFormat.
func DecodeWorkload(data []byte) (*workload.Workload, error) {
	switch {
	case bytes.HasPrefix(data, legacyWorkloadHeader):
		return nil, fmt.Errorf("version 1 stored workload: %w", ErrLegacyFormat)
	case !bytes.HasPrefix(data, storedWorkloadHeader):
		return nil, fmt.Errorf("api: not a gridsched stored workload (%d bytes)", len(data))
	}
	c := Coder{b: data, off: len(storedWorkloadHeader), decode: true}
	w := &workload.Workload{}
	c.Workload(w)
	if err := c.End("stored workload"); err != nil {
		return nil, err
	}
	return w, nil
}

// message is the message table: every type with a binary encoding is named
// here once, beside its type byte and its field list (a method, or the one
// field of a message that has only one). It reports whether v is in the
// table and, given a coder, codes v with it. Any other type byte is
// rejected, so adding a message is a protocol version event, not a silent
// skew.
func (c *Coder) message(v any) bool {
	var typ byte
	var fields func() // never escapes, so neither do c and m: the walk allocates nothing of its own
	switch m := v.(type) {
	case *SubmitJobRequest:
		typ, fields = 1, func() { c.submitJobRequest(m) }
	case *SubmitJobResponse:
		typ, fields = 2, func() { c.Str(&m.JobID) }
	case *RegisterRequest:
		typ, fields = 3, func() { c.registerRequest(m) }
	case *RegisterResponse:
		typ, fields = 4, func() { c.registerResponse(m) }
	case *PullRequest:
		typ, fields = 5, func() { Num(c, &m.WaitMillis) }
	case *PullResponse:
		typ, fields = 6, func() { c.pullResponse(m) }
	case *HeartbeatRequest:
		typ, fields = 7, func() { c.Str(&m.WorkerID) }
	case *HeartbeatResponse:
		typ, fields = 8, func() { c.Enum(&m.State, &heartbeatStates) }
	case *ReportRequest:
		typ, fields = 9, func() { c.reportRequest(m) }
	case *ReportResponse:
		typ, fields = 10, func() { c.reportResponse(m) }
	case *LeaseBatch:
		typ, fields = 11, func() { c.leaseBatch(m) }
	case *ReportBatchRequest:
		typ, fields = 12, func() { c.reportBatchRequest(m) }
	case *ReportBatchResponse:
		typ, fields = 13, func() { c.reportBatchResponse(m) }
	default:
		return false
	}
	// The envelope every message travels in: magic, version, type byte.
	switch {
	case c == nil: // Supports, which only asks whether v is in the table
	case !c.decode:
		c.b = append(c.b, binMagic, binVersion, typ)
		fields()
	case len(c.b) < 3 || c.b[0] != binMagic || c.b[1] != binVersion:
		c.fail("api: not a gridsched binary message (%d bytes)", len(c.b))
	case c.b[2] != typ:
		c.fail("api: binary message type %d, want %d (%T)", c.b[2], typ, v)
	default:
		c.off = 3
		fields()
	}
	return true
}

// The field lists. Each names its message's fields once, in wire order;
// the coder's mode decides whether the walk writes them or reads them.

func (c *Coder) submitJobRequest(m *SubmitJobRequest) {
	c.Str(&m.Name)
	c.Str(&m.Algorithm)
	Num(c, &m.Seed)
	if w := Opt(c, &m.Workload); w != nil {
		c.Workload(w)
	}
	c.Str(&m.SubmissionID)
	c.Str(&m.Tenant)
	Num(c, &m.Weight)
	c.Strs(&m.Requires)
	Num(c, &m.DeadlineMillis)
}

func (c *Coder) registerRequest(m *RegisterRequest) {
	if site := Opt(c, &m.Site); site != nil {
		Num(c, site)
	}
	c.Strs(&m.Tags)
}

func (c *Coder) registerResponse(m *RegisterResponse) {
	c.Str(&m.WorkerID)
	Num(c, &m.Site)
	Num(c, &m.Worker)
	Num(c, &m.LeaseTTLMillis)
}

func (c *Coder) pullResponse(m *PullResponse) {
	c.Enum(&m.Status, &pullStatuses)
	if a := Opt(c, &m.Assignment); a != nil {
		c.assignment(a)
	}
	Num(c, &m.OpenJobs)
}

func (c *Coder) reportRequest(m *ReportRequest) {
	c.Str(&m.WorkerID)
	c.Enum(&m.Outcome, &Outcomes)
}

func (c *Coder) reportResponse(m *ReportResponse) {
	c.Bool(&m.Accepted)
	c.Bool(&m.Stale)
	c.Bool(&m.Cancelled)
	c.Enum(&m.JobState, &jobStates)
}

func (c *Coder) leaseBatch(m *LeaseBatch) {
	as := Sized(c, &m.Assignments)
	for i := range as {
		c.assignment(&as[i])
	}
	c.Strs(&m.Cancelled)
	Num(c, &m.OpenJobs)
}

func (c *Coder) reportBatchRequest(m *ReportBatchRequest) {
	items := Sized(c, &m.Reports)
	for i := range items {
		c.Str(&items[i].AssignmentID)
		c.Enum(&items[i].Outcome, &Outcomes)
	}
}

func (c *Coder) reportBatchResponse(m *ReportBatchResponse) {
	results := Sized(c, &m.Results)
	for i := range results {
		c.reportResponse(&results[i])
	}
}

func (c *Coder) assignment(a *Assignment) {
	c.Str(&a.ID)
	c.Str(&a.JobID)
	c.task(&a.Task, nil)
	Num(c, &a.Staged)
	Num(c, &a.LeaseTTLMillis)
}

// task lists a task's fields. Decoding, the Files of a task on its own are
// made for it; a workload's tasks, themselves just made, cut theirs from
// pool, the one array workload sized for all of them, each with its capacity
// capped so that appending to one task's cannot write into the next one's.
func (c *Coder) task(t *workload.Task, pool *[]workload.FileID) {
	Num(c, &t.ID)
	if pool == nil || !c.decode {
		Sized(c, &t.Files)
	} else if n := c.count(); n > 0 {
		// n fits: this pass reads the counts the sizing pass read, until an
		// error, after which every count reads as 0.
		t.Files, *pool = (*pool)[:n:n], (*pool)[n:]
	}
	c.files(t.Files)
}

// files codes the elements of a sized list of file ids, each as the zigzag
// varint of its difference from the one before it (the first's from 0).
// These are where a workload's bytes go, ~79 ids to a Coadd task, and a
// task's ids come in a few runs of neighbours: most differences take one
// byte where most ids took three. Any order codes, and one list has one
// encoding: the differences are the list's own, and decoding refuses a
// running sum an int32 cannot hold, as it would an id.
func (c *Coder) files(s []workload.FileID) {
	if !c.decode {
		prev := int64(0)
		for _, id := range s {
			c.b = binary.AppendVarint(c.b, int64(id)-prev)
			prev = int64(id)
		}
		return
	}
	prev := int64(0)
	for i := 0; i < len(s) && c.err == nil; {
		// The one-byte differences that open an eight-byte word, from one
		// load: the rest of the word is masked to zero differences, so the
		// loop applies eight without a branch on any varint's length, and the
		// ids it writes past them are written again by the next pass.
		if len(s)-i >= 8 && len(c.b)-c.off >= 8 {
			w := binary.LittleEndian.Uint64(c.b[c.off:])
			k := bits.TrailingZeros64(w&varintMore) >> 3 // 8 when no byte continues
			w &= 1<<(8*k) - 1
			out := uint64(0) // every sum's offset from MinInt32, or-ed: above 32 bits iff one left int32
			for j, dst := 0, (*[8]workload.FileID)(s[i:]); j < 8; j, w = j+1, w>>8 {
				prev += int64(w>>1&0x3f) ^ -int64(w&1)
				out |= uint64(prev - math.MinInt32)
				dst[j] = workload.FileID(prev)
			}
			if out>>32 != 0 {
				c.fail("api: file id out of int32 range before offset %d", c.off+k)
				return
			}
			c.off += k
			i += k
			if k == 8 {
				continue
			}
		}
		// A difference near ±2^63 wraps the sum, but never into int32's range.
		prev += c.diff()
		if prev != int64(int32(prev)) {
			c.fail("api: file id %d out of int32 range before offset %d", prev, c.off)
			return
		}
		s[i] = workload.FileID(prev)
		i++
	}
}

// diff reads one zigzag varint as varint does, its one- and two-byte forms
// inline: the differences the word pass leaves are mostly the jumps between
// runs of a Coadd task's ids, and the last few of a list.
func (c *Coder) diff() int64 {
	var x uint64
	switch b := c.b[c.off:]; {
	case len(b) >= 1 && b[0] < 0x80:
		x = uint64(b[0])
		c.off++
	case len(b) >= 2 && b[1]-1 < 0x7f: // the second byte ends it and is no padding zero
		x = uint64(b[0]&0x7f) | uint64(b[1])<<7
		c.off += 2
	default:
		return c.varint()
	}
	return int64(x>>1) ^ -int64(x&1)
}

// varintMore is every byte's continuation bit, for a word of eight varint
// bytes: a byte without it ends a varint.
const varintMore = 0x8080808080808080

// Workload lists the workload document's fields. It decodes into two
// allocations besides the Workload itself: the task array and one array
// every task's Files is a slice of. A first pass over the encoding sizes
// that array exactly (a 6,000-task Coadd job has ~470,000 file references;
// one slice per task was 6,000 allocations, and growing one by append
// overshoots by up to a quarter).
func (c *Coder) Workload(w *workload.Workload) {
	c.Str(&w.Name)
	Num(c, &w.NumFiles)
	tasks := Sized(c, &w.Tasks)
	var pool []workload.FileID
	if c.decode {
		pool = make([]workload.FileID, c.fileRefs(len(tasks)))
	}
	for i := range tasks {
		c.task(&tasks[i], &pool)
	}
}

// fileRefs is the sizing pass of a workload decode: the number of file
// references in the tasks tasks encoded from here on, read without
// consuming them. It leaves rejecting an overlong varint to the pass that
// reads the values.
func (c *Coder) fileRefs(tasks int) int {
	start, refs := c.off, 0
	for ; tasks > 0 && c.err == nil; tasks-- {
		c.skipVarints(1) // id
		k := c.count()
		c.skipVarints(k)
		refs += k
	}
	if c.err != nil {
		return 0
	}
	c.off = start
	return refs
}

// skipVarints steps over n varints: a varint ends at its first byte under
// 0x80. While more than one is left it counts the ends a word at a time,
// and in the word that holds the n-th, finds it by its bit; one varint on
// its own (a task id, a one-file list) is a few bytes, stepped over one by
// one.
func (c *Coder) skipVarints(n int) {
	for n > 1 && c.err == nil && len(c.b)-c.off >= 8 {
		ends := ^binary.LittleEndian.Uint64(c.b[c.off:]) & varintMore
		if k := bits.OnesCount64(ends); k < n {
			n -= k
			c.off += 8
			continue
		}
		for ; n > 1; n-- {
			ends &= ends - 1
		}
		c.off += bits.TrailingZeros64(ends)>>3 + 1
		return
	}
	for n > 0 && c.err == nil {
		if c.off >= len(c.b) {
			c.fail("api: truncated binary message")
			return
		}
		if c.b[c.off] < 0x80 {
			n--
		}
		c.off++
	}
}

// Enum is one of the small closed string sets: Names[i] travels as the
// byte First+i.
type Enum struct {
	What  string
	First byte
	Names []string
}

var (
	pullStatuses    = Enum{"pull status", 1, []string{StatusAssigned, StatusEmpty}}
	heartbeatStates = Enum{"heartbeat state", 1, []string{HeartbeatActive, HeartbeatCancelled, HeartbeatGone}}
	// Outcomes is shared with the journal, whose report records carry one.
	Outcomes = Enum{"outcome", 1, []string{OutcomeSuccess, OutcomeFailure}}
	// A report that was not accepted carries no job state: byte 0.
	jobStates = Enum{"job state", 0, []string{"", JobRunning, JobCompleted}}
)

// Coder walks field lists. Encoding, it appends each field to b; decoding,
// it reads each from b at off, sticking on the first error — after which
// every field reads as zero — and validating every length against the bytes
// actually remaining, so corrupt input cannot force a large allocation.
//
// A field list is a function of a *Coder and a value that names the value's
// fields once, in order, each with its primitive: the methods below, and
// Num, Sized and Opt. The coder's mode decides whether the walk writes
// them or reads them.
type Coder struct {
	b      []byte
	off    int
	decode bool
	err    error
}

// NewEncoder returns a Coder that appends every field it walks to dst.
func NewEncoder(dst []byte) Coder { return Coder{b: dst} }

// NewDecoder returns a Coder that reads every field it walks from data,
// front to back.
func NewDecoder(data []byte) Coder { return Coder{b: data, decode: true} }

// Out closes an encode: the bytes, and the first error (an
// out-of-vocabulary enum string).
func (c *Coder) Out() ([]byte, error) { return c.b, c.err }

func (c *Coder) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// End closes a decode: the first error, or the bytes nothing read.
func (c *Coder) End(what string) error {
	if c.err == nil && c.off != len(c.b) {
		return fmt.Errorf("api: %d trailing bytes after %s", len(c.b)-c.off, what)
	}
	return c.err
}

func (c *Coder) byte() byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.b) {
		c.fail("api: truncated binary message")
		return 0
	}
	c.off++
	return c.b[c.off-1]
}

// Bool codes a boolean as one byte, 0 or 1.
func (c *Coder) Bool(v *bool) {
	if !c.decode {
		bit := byte(0)
		if *v {
			bit = 1
		}
		c.b = append(c.b, bit)
		return
	}
	bit := c.byte()
	if bit > 1 {
		c.fail("api: bad bool byte")
	}
	*v = bit == 1
}

// Enum codes a field drawn from e. An out-of-vocabulary string is refused
// rather than silently becoming a wrong byte, an unknown byte rather than
// becoming a guess.
func (c *Coder) Enum(s *string, e *Enum) {
	if !c.decode {
		for i, name := range e.Names {
			if name == *s {
				c.b = append(c.b, e.First+byte(i))
				return
			}
		}
		c.fail("api: unknown %s %q", e.What, *s)
		return
	}
	*s = ""
	if i := int(c.byte()) - int(e.First); c.err == nil {
		if i < 0 || i >= len(e.Names) {
			c.fail("api: bad %s byte", e.What)
			return
		}
		*s = e.Names[i]
	}
}

// Num codes an integer field, whatever its Go width, as a zigzag varint (an
// unsigned field as the signed integer of its bits).
// Like every primitive it does not read the field it is decoding into: a
// decoded array is fresh memory, and touching a page of it first to read and
// then to write is two page faults where writing alone is one — on a
// 6,000-task workload, a fifth of gridschedd's recovery time.
func Num[T ~int | ~int32 | ~int64 | ~uint64](c *Coder, v *T) {
	if c.decode {
		*v = numOf[T](c)
	} else {
		c.b = binary.AppendVarint(c.b, int64(*v))
	}
}

// numOf reads one zigzag varint as a T, refusing a value a T cannot hold:
// truncated, it would re-encode to other bytes.
func numOf[T ~int | ~int32 | ~int64 | ~uint64](c *Coder) T {
	x := c.varint()
	v := T(x)
	if int64(v) != x {
		c.fail("api: %d out of range before offset %d", x, c.off)
	}
	return v
}

// varint reads one zigzag varint. One value has one encoding: a varint
// padded with a final zero byte is refused, as an overlong one is.
func (c *Coder) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, size := binary.Varint(c.b[c.off:])
	if size <= 0 || size > 1 && c.b[c.off+size-1] == 0 {
		c.fail("api: bad varint at offset %d", c.off)
		return 0
	}
	c.off += size
	return v
}

// count reads a length, a uvarint (minimal, as varint's are), and bounds it
// by the bytes that remain: every element of a list, and every byte of a
// string, costs at least one on the wire, so a corrupt length cannot ask for
// a large allocation.
func (c *Coder) count() int {
	if c.err != nil {
		return 0
	}
	u, size := binary.Uvarint(c.b[c.off:])
	if size <= 0 || size > 1 && c.b[c.off+size-1] == 0 {
		c.fail("api: bad uvarint at offset %d", c.off)
		return 0
	}
	c.off += size
	if left := len(c.b) - c.off; u > uint64(left) {
		c.fail("api: length %d exceeds %d remaining bytes", u, left)
		return 0
	}
	return int(u)
}

// Str codes a string: its length, then its bytes.
func (c *Coder) Str(s *string) {
	if !c.decode {
		c.b = binary.AppendUvarint(c.b, uint64(len(*s)))
		c.b = append(c.b, *s...)
		return
	}
	n := c.count()
	*s = string(c.b[c.off : c.off+n])
	c.off += n
}

// Bytes codes a blob as Str codes a string. Decoding makes the blob an owned
// copy, nil when empty: nothing decoded aliases the input.
func (c *Coder) Bytes(b *[]byte) {
	if !c.decode {
		c.b = binary.AppendUvarint(c.b, uint64(len(*b)))
		c.b = append(c.b, *b...)
		return
	}
	*b = nil
	if n := c.count(); n > 0 {
		*b = bytes.Clone(c.b[c.off : c.off+n])
		c.off += n
	}
}

// Strs codes a list of strings.
func (c *Coder) Strs(ss *[]string) {
	for i := range Sized(c, ss) {
		c.Str(&(*ss)[i])
	}
}

// Sized codes a collection's length and returns the collection for the
// caller to walk; decoding makes it first — nil when empty, mirroring
// omitempty JSON so a binary round trip compares equal to a JSON one.
func Sized[T any](c *Coder, s *[]T) []T {
	if !c.decode {
		c.b = binary.AppendUvarint(c.b, uint64(len(*s)))
		return *s
	}
	*s = nil
	if n := c.count(); n > 0 {
		*s = make([]T, n)
	}
	return *s
}

// Opt codes whether an optional field is set and returns it for the caller
// to walk, nil when it is not; decoding makes the value first.
func Opt[T any](c *Coder, p **T) *T {
	set := *p != nil
	c.Bool(&set)
	if c.decode {
		*p = nil
		if set {
			*p = new(T)
		}
	}
	return *p
}
