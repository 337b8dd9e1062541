// codec.go is the shared encode/decode layer behind both wire formats.
// JSON stays the debuggable default; the binary codec below is the
// wire-speed format for the dispatch hot path (pull/report/submit and the
// lease stream), negotiated per request via Content-Type/Accept. Both
// codecs marshal exactly the structs in api.go — there is no separate
// schema to drift.
//
// Binary layout: every message is
//
//	'G' 0x01 <msg-type byte> <fields...>
//
// with uvarint for unsigned integers, zigzag varint for signed ones,
// length-prefixed strings, a 0/1 byte for booleans, and one enum byte for
// the small closed string sets (pull status, heartbeat state, outcome,
// job state). Decoding is strict: unknown message types, unknown enum
// bytes, truncated fields, oversized lengths, and trailing garbage are
// all errors — never a guess. Stream frames are uvarint(len) + payload
// (AppendFrame/ReadFrame).
package api

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	// binVersion 2 appended the context-aware scheduling fields:
	// SubmitJobRequest gained Requires + DeadlineMillis, RegisterRequest
	// gained Tags. The decoder is strict, so version 1 captures are
	// rejected rather than misparsed.
	binVersion = 2
)

// Binary message type bytes. The codec rejects any other value, so adding
// a message is a protocol version event, not a silent skew.
const (
	msgSubmitJobRequest    = 1
	msgSubmitJobResponse   = 2
	msgRegisterRequest     = 3
	msgRegisterResponse    = 4
	msgPullRequest         = 5
	msgPullResponse        = 6
	msgHeartbeatRequest    = 7
	msgHeartbeatResponse   = 8
	msgReportRequest       = 9
	msgReportResponse      = 10
	msgLeaseBatch          = 11
	msgReportBatchRequest  = 12
	msgReportBatchResponse = 13
)

// storedWorkloadHeader heads a stored workload (EncodeWorkload). Stored
// documents outlive the process that wrote them, so they carry their own
// magic and version rather than the wire's: a binVersion bump that leaves
// the workload fields alone must not orphan every data dir. Changing
// binWriter.workload's layout means bumping the last byte here and
// teaching DecodeWorkload the old one.
var storedWorkloadHeader = []byte{'G', 'W', 1}

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

func (binaryCodec) Supports(v any) bool {
	switch v.(type) {
	case *SubmitJobRequest, SubmitJobRequest,
		*SubmitJobResponse, SubmitJobResponse,
		*RegisterRequest, RegisterRequest,
		*RegisterResponse, RegisterResponse,
		*PullRequest, PullRequest,
		*PullResponse, PullResponse,
		*HeartbeatRequest, HeartbeatRequest,
		*HeartbeatResponse, HeartbeatResponse,
		*ReportRequest, ReportRequest,
		*ReportResponse, ReportResponse,
		*LeaseBatch, LeaseBatch,
		*ReportBatchRequest, ReportBatchRequest,
		*ReportBatchResponse, ReportBatchResponse:
		return true
	}
	return false
}

func (binaryCodec) Marshal(v any) ([]byte, error) {
	w := binWriter{b: make([]byte, 0, 64)}
	w.b = append(w.b, binMagic, binVersion)
	switch m := v.(type) {
	case *SubmitJobRequest:
		w.submitJobRequest(m)
	case SubmitJobRequest:
		w.submitJobRequest(&m)
	case *SubmitJobResponse:
		w.submitJobResponse(m)
	case SubmitJobResponse:
		w.submitJobResponse(&m)
	case *RegisterRequest:
		w.registerRequest(m)
	case RegisterRequest:
		w.registerRequest(&m)
	case *RegisterResponse:
		w.registerResponse(m)
	case RegisterResponse:
		w.registerResponse(&m)
	case *PullRequest:
		w.pullRequest(m)
	case PullRequest:
		w.pullRequest(&m)
	case *PullResponse:
		w.pullResponse(m)
	case PullResponse:
		w.pullResponse(&m)
	case *HeartbeatRequest:
		w.heartbeatRequest(m)
	case HeartbeatRequest:
		w.heartbeatRequest(&m)
	case *HeartbeatResponse:
		w.heartbeatResponse(m)
	case HeartbeatResponse:
		w.heartbeatResponse(&m)
	case *ReportRequest:
		w.reportRequest(m)
	case ReportRequest:
		w.reportRequest(&m)
	case *ReportResponse:
		w.reportResponse(m)
	case ReportResponse:
		w.reportResponse(&m)
	case *LeaseBatch:
		w.leaseBatch(m)
	case LeaseBatch:
		w.leaseBatch(&m)
	case *ReportBatchRequest:
		w.reportBatchRequest(m)
	case ReportBatchRequest:
		w.reportBatchRequest(&m)
	case *ReportBatchResponse:
		w.reportBatchResponse(m)
	case ReportBatchResponse:
		w.reportBatchResponse(&m)
	default:
		return nil, fmt.Errorf("api: binary codec does not encode %T", v)
	}
	return w.b, w.err
}

func (binaryCodec) Unmarshal(data []byte, v any) error {
	r := binReader{b: data}
	if len(data) < 3 || data[0] != binMagic || data[1] != binVersion {
		return fmt.Errorf("api: not a gridsched binary message (%d bytes)", len(data))
	}
	r.off = 2
	typ := r.byte()
	var want byte
	switch m := v.(type) {
	case *SubmitJobRequest:
		want = msgSubmitJobRequest
		if typ == want {
			r.submitJobRequest(m)
		}
	case *SubmitJobResponse:
		want = msgSubmitJobResponse
		if typ == want {
			m.JobID = r.str()
		}
	case *RegisterRequest:
		want = msgRegisterRequest
		if typ == want {
			r.registerRequest(m)
		}
	case *RegisterResponse:
		want = msgRegisterResponse
		if typ == want {
			m.WorkerID = r.str()
			m.Site = int(r.i64())
			m.Worker = int(r.i64())
			m.LeaseTTLMillis = r.i64()
		}
	case *PullRequest:
		want = msgPullRequest
		if typ == want {
			m.WaitMillis = r.i64()
		}
	case *PullResponse:
		want = msgPullResponse
		if typ == want {
			r.pullResponse(m)
		}
	case *HeartbeatRequest:
		want = msgHeartbeatRequest
		if typ == want {
			m.WorkerID = r.str()
		}
	case *HeartbeatResponse:
		want = msgHeartbeatResponse
		if typ == want {
			m.State = r.heartbeatState()
		}
	case *ReportRequest:
		want = msgReportRequest
		if typ == want {
			m.WorkerID = r.str()
			m.Outcome = r.outcome()
		}
	case *ReportResponse:
		want = msgReportResponse
		if typ == want {
			r.reportResponse(m)
		}
	case *LeaseBatch:
		want = msgLeaseBatch
		if typ == want {
			r.leaseBatch(m)
		}
	case *ReportBatchRequest:
		want = msgReportBatchRequest
		if typ == want {
			r.reportBatchRequest(m)
		}
	case *ReportBatchResponse:
		want = msgReportBatchResponse
		if typ == want {
			r.reportBatchResponse(m)
		}
	default:
		return fmt.Errorf("api: binary codec does not decode %T", v)
	}
	if r.err == nil && typ != want {
		return fmt.Errorf("api: binary message type %d, want %d (%T)", typ, want, v)
	}
	if r.err == nil && r.off != len(r.b) {
		return fmt.Errorf("api: %d trailing bytes after binary message", len(r.b)-r.off)
	}
	return r.err
}

// EncodeWorkload renders w as a standalone binary document:
// storedWorkloadHeader followed by the workload fields exactly as a binary
// SubmitJobRequest carries them.
func EncodeWorkload(w *workload.Workload) []byte {
	// Coadd-shaped workloads run ~2.5 bytes per file reference; reserve
	// from the task count so the common case grows the buffer a few times,
	// not dozens.
	return AppendWorkload(make([]byte, 0, 64+len(w.Name)+256*len(w.Tasks)), w)
}

// AppendWorkload appends EncodeWorkload's document to dst — for a caller
// that stores it as the tail of a larger record.
func AppendWorkload(dst []byte, w *workload.Workload) []byte {
	bw := binWriter{b: append(dst, storedWorkloadHeader...)}
	bw.workload(w)
	return bw.b
}

// DecodeWorkload is EncodeWorkload's strict inverse: wrong header,
// truncation, and trailing bytes are all errors.
func DecodeWorkload(data []byte) (*workload.Workload, error) {
	if !bytes.HasPrefix(data, storedWorkloadHeader) {
		return nil, fmt.Errorf("api: not a gridsched stored workload (%d bytes)", len(data))
	}
	r := binReader{b: data, off: len(storedWorkloadHeader)}
	w := r.workload()
	if r.err == nil && r.off != len(r.b) {
		return nil, fmt.Errorf("api: %d trailing bytes after stored workload", len(r.b)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	return w, nil
}

// binWriter appends binary fields. Marshal never fails for the supported
// types, so err stays nil; it exists to mirror binReader's shape.
type binWriter struct {
	b   []byte
	err error
}

func (w *binWriter) u64(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *binWriter) i64(v int64)  { w.b = binary.AppendVarint(w.b, v) }
func (w *binWriter) byte(v byte)  { w.b = append(w.b, v) }

func (w *binWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.b = append(w.b, s...)
}

func (w *binWriter) bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.b = append(w.b, b)
}

func (w *binWriter) strs(ss []string) {
	w.u64(uint64(len(ss)))
	for _, s := range ss {
		w.str(s)
	}
}

func (w *binWriter) submitJobRequest(m *SubmitJobRequest) {
	w.byte(msgSubmitJobRequest)
	w.str(m.Name)
	w.str(m.Algorithm)
	w.i64(m.Seed)
	w.bool(m.Workload != nil)
	if m.Workload != nil {
		w.workload(m.Workload)
	}
	w.str(m.SubmissionID)
	w.str(m.Tenant)
	w.i64(int64(m.Weight))
	w.strs(m.Requires)
	w.i64(m.DeadlineMillis)
}

func (w *binWriter) workload(wl *workload.Workload) {
	w.str(wl.Name)
	w.i64(int64(wl.NumFiles))
	w.u64(uint64(len(wl.Tasks)))
	for _, t := range wl.Tasks {
		w.task(t)
	}
}

func (w *binWriter) task(t workload.Task) {
	w.i64(int64(t.ID))
	w.u64(uint64(len(t.Files)))
	for _, f := range t.Files {
		w.i64(int64(f))
	}
}

func (w *binWriter) submitJobResponse(m *SubmitJobResponse) {
	w.byte(msgSubmitJobResponse)
	w.str(m.JobID)
}

func (w *binWriter) registerRequest(m *RegisterRequest) {
	w.byte(msgRegisterRequest)
	w.bool(m.Site != nil)
	if m.Site != nil {
		w.i64(int64(*m.Site))
	}
	w.strs(m.Tags)
}

func (w *binWriter) registerResponse(m *RegisterResponse) {
	w.byte(msgRegisterResponse)
	w.str(m.WorkerID)
	w.i64(int64(m.Site))
	w.i64(int64(m.Worker))
	w.i64(m.LeaseTTLMillis)
}

func (w *binWriter) pullRequest(m *PullRequest) {
	w.byte(msgPullRequest)
	w.i64(m.WaitMillis)
}

func (w *binWriter) pullResponse(m *PullResponse) {
	w.byte(msgPullResponse)
	w.pullStatus(m.Status)
	w.bool(m.Assignment != nil)
	if m.Assignment != nil {
		w.assignment(m.Assignment)
	}
	w.i64(int64(m.OpenJobs))
}

func (w *binWriter) assignment(a *Assignment) {
	w.str(a.ID)
	w.str(a.JobID)
	w.task(a.Task)
	w.i64(int64(a.Staged))
	w.i64(a.LeaseTTLMillis)
}

func (w *binWriter) heartbeatRequest(m *HeartbeatRequest) {
	w.byte(msgHeartbeatRequest)
	w.str(m.WorkerID)
}

func (w *binWriter) heartbeatResponse(m *HeartbeatResponse) {
	w.byte(msgHeartbeatResponse)
	w.heartbeatState(m.State)
}

func (w *binWriter) reportRequest(m *ReportRequest) {
	w.byte(msgReportRequest)
	w.str(m.WorkerID)
	w.outcome(m.Outcome)
}

func (w *binWriter) reportResponse(m *ReportResponse) {
	w.byte(msgReportResponse)
	w.bool(m.Accepted)
	w.bool(m.Stale)
	w.bool(m.Cancelled)
	w.jobState(m.JobState)
}

func (w *binWriter) leaseBatch(m *LeaseBatch) {
	w.byte(msgLeaseBatch)
	w.u64(uint64(len(m.Assignments)))
	for i := range m.Assignments {
		w.assignment(&m.Assignments[i])
	}
	w.u64(uint64(len(m.Cancelled)))
	for _, id := range m.Cancelled {
		w.str(id)
	}
	w.i64(int64(m.OpenJobs))
}

func (w *binWriter) reportBatchRequest(m *ReportBatchRequest) {
	w.byte(msgReportBatchRequest)
	w.u64(uint64(len(m.Reports)))
	for _, it := range m.Reports {
		w.str(it.AssignmentID)
		w.outcome(it.Outcome)
	}
}

func (w *binWriter) reportBatchResponse(m *ReportBatchResponse) {
	w.byte(msgReportBatchResponse)
	w.u64(uint64(len(m.Results)))
	for i := range m.Results {
		r := &m.Results[i]
		w.bool(r.Accepted)
		w.bool(r.Stale)
		w.bool(r.Cancelled)
		w.jobState(r.JobState)
	}
}

// Enum bytes. setErr on encode keeps an out-of-vocabulary string from
// silently becoming a wrong byte; decode rejects unknown bytes.

func (w *binWriter) setErr(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf(format, args...)
	}
}

func (w *binWriter) pullStatus(s string) {
	switch s {
	case StatusAssigned:
		w.byte(1)
	case StatusEmpty:
		w.byte(2)
	default:
		w.setErr("api: unknown pull status %q", s)
	}
}

func (w *binWriter) heartbeatState(s string) {
	switch s {
	case HeartbeatActive:
		w.byte(1)
	case HeartbeatCancelled:
		w.byte(2)
	case HeartbeatGone:
		w.byte(3)
	default:
		w.setErr("api: unknown heartbeat state %q", s)
	}
}

func (w *binWriter) outcome(s string) {
	switch s {
	case OutcomeSuccess:
		w.byte(1)
	case OutcomeFailure:
		w.byte(2)
	default:
		w.setErr("api: unknown outcome %q", s)
	}
}

func (w *binWriter) jobState(s string) {
	switch s {
	case "":
		w.byte(0)
	case JobRunning:
		w.byte(1)
	case JobCompleted:
		w.byte(2)
	default:
		w.setErr("api: unknown job state %q", s)
	}
}

// binReader consumes binary fields, sticking on the first error; every
// length is validated against the bytes actually remaining, so corrupt
// input cannot force a large allocation.
type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) setErr(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *binReader) remaining() int { return len(r.b) - r.off }

func (r *binReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.setErr("api: truncated binary message")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *binReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.setErr("api: bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) i64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.setErr("api: bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) bool() bool {
	switch r.byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.setErr("api: bad bool byte")
		return false
	}
}

func (r *binReader) str() string {
	n := r.u64()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.remaining()) {
		r.setErr("api: string length %d exceeds %d remaining bytes", n, r.remaining())
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// strs reads a string collection (nil when empty, mirroring omitempty
// JSON so a binary round trip compares equal to a JSON one).
func (r *binReader) strs() []string {
	n := r.count()
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.str()
	}
	return ss
}

// count reads a collection length and bounds it by the remaining bytes
// (every element costs at least one byte on the wire).
func (r *binReader) count() int {
	n := r.u64()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.remaining()) {
		r.setErr("api: collection length %d exceeds %d remaining bytes", n, r.remaining())
		return 0
	}
	return int(n)
}

func (r *binReader) submitJobRequest(m *SubmitJobRequest) {
	m.Name = r.str()
	m.Algorithm = r.str()
	m.Seed = r.i64()
	if r.bool() {
		m.Workload = r.workload()
	}
	m.SubmissionID = r.str()
	m.Tenant = r.str()
	m.Weight = int(r.i64())
	m.Requires = r.strs()
	m.DeadlineMillis = r.i64()
}

// workload decodes into two allocations besides the Workload itself: the
// task array and one array every task's Files is a slice of. A first pass
// over the encoding sizes that array exactly (a 6,000-task Coadd job has
// ~470,000 file references; one slice per task was 6,000 allocations, and
// growing one by append overshoots by up to a quarter). Each Files is cut
// with its capacity capped, so appending to one task's cannot write into
// the next one's.
func (r *binReader) workload() *workload.Workload {
	wl := &workload.Workload{}
	wl.Name = r.str()
	wl.NumFiles = int(r.i64())
	n := r.count()
	if n == 0 {
		return wl
	}
	start, refs := r.off, 0
	for i := 0; i < n && r.err == nil; i++ {
		r.skipVarints(1) // id
		k := r.count()
		r.skipVarints(k)
		refs += k
	}
	if r.err != nil {
		return wl
	}
	r.off = start
	wl.Tasks = make([]workload.Task, n)
	files := make([]workload.FileID, refs)
	for i := range wl.Tasks {
		t := &wl.Tasks[i]
		t.ID = workload.TaskID(r.i64())
		if k := r.count(); k > 0 {
			// k fits: this pass reads the counts the sizing pass read, until
			// an error, after which every count reads as 0.
			t.Files, files = files[:k:k], files[k:]
			for j := range t.Files {
				t.Files[j] = workload.FileID(r.i64())
			}
		}
	}
	return wl
}

// skipVarints steps over n varints without decoding them: the sizing pass
// of workload, which leaves rejecting an overlong one to the pass that
// reads the values.
func (r *binReader) skipVarints(n int) {
	for ; n > 0 && r.err == nil; n-- {
		for {
			if r.off >= len(r.b) {
				r.setErr("api: truncated binary message")
				return
			}
			r.off++
			if r.b[r.off-1] < 0x80 {
				break
			}
		}
	}
}

func (r *binReader) task(t *workload.Task) {
	t.ID = workload.TaskID(r.i64())
	if n := r.count(); n > 0 {
		t.Files = make([]workload.FileID, n)
		for i := range t.Files {
			t.Files[i] = workload.FileID(r.i64())
		}
	}
}

func (r *binReader) registerRequest(m *RegisterRequest) {
	if r.bool() {
		site := int(r.i64())
		m.Site = &site
	}
	m.Tags = r.strs()
}

func (r *binReader) pullResponse(m *PullResponse) {
	m.Status = r.pullStatus()
	if r.bool() {
		m.Assignment = &Assignment{}
		r.assignment(m.Assignment)
	}
	m.OpenJobs = int(r.i64())
}

func (r *binReader) assignment(a *Assignment) {
	a.ID = r.str()
	a.JobID = r.str()
	r.task(&a.Task)
	a.Staged = int(r.i64())
	a.LeaseTTLMillis = r.i64()
}

func (r *binReader) reportResponse(m *ReportResponse) {
	m.Accepted = r.bool()
	m.Stale = r.bool()
	m.Cancelled = r.bool()
	m.JobState = r.jobState()
}

func (r *binReader) leaseBatch(m *LeaseBatch) {
	if n := r.count(); n > 0 {
		m.Assignments = make([]Assignment, n)
		for i := range m.Assignments {
			r.assignment(&m.Assignments[i])
		}
	}
	if n := r.count(); n > 0 {
		m.Cancelled = make([]string, n)
		for i := range m.Cancelled {
			m.Cancelled[i] = r.str()
		}
	}
	m.OpenJobs = int(r.i64())
}

func (r *binReader) reportBatchRequest(m *ReportBatchRequest) {
	if n := r.count(); n > 0 {
		m.Reports = make([]ReportItem, n)
		for i := range m.Reports {
			m.Reports[i].AssignmentID = r.str()
			m.Reports[i].Outcome = r.outcome()
		}
	}
}

func (r *binReader) reportBatchResponse(m *ReportBatchResponse) {
	if n := r.count(); n > 0 {
		m.Results = make([]ReportResponse, n)
		for i := range m.Results {
			r.reportResponse(&m.Results[i])
		}
	}
}

func (r *binReader) pullStatus() string {
	switch r.byte() {
	case 1:
		return StatusAssigned
	case 2:
		return StatusEmpty
	default:
		r.setErr("api: bad pull status byte")
		return ""
	}
}

func (r *binReader) heartbeatState() string {
	switch r.byte() {
	case 1:
		return HeartbeatActive
	case 2:
		return HeartbeatCancelled
	case 3:
		return HeartbeatGone
	default:
		r.setErr("api: bad heartbeat state byte")
		return ""
	}
}

func (r *binReader) outcome() string {
	switch r.byte() {
	case 1:
		return OutcomeSuccess
	case 2:
		return OutcomeFailure
	default:
		r.setErr("api: bad outcome byte")
		return ""
	}
}

func (r *binReader) jobState() string {
	switch r.byte() {
	case 0:
		return ""
	case 1:
		return JobRunning
	case 2:
		return JobCompleted
	default:
		r.setErr("api: bad job state byte")
		return ""
	}
}
