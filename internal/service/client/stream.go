// Client side of the streaming lease channel (see internal/service/stream.go
// for the server half and docs/PROTOCOL.md for the wire format): one GET
// holds a chunked response open, the server pushes length-prefixed
// LeaseBatch frames down it, and completions flow back batched through
// POST /v1/workers/{id}/reports.
package client

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"gridsched/internal/service/api"
)

// LeaseStream is one open lease channel. Next blocks for the server's next
// frame; Close tears the stream down (the server notices and lets the
// worker's leases expire on their TTL, exactly as if the worker crashed).
type LeaseStream struct {
	body   io.ReadCloser
	br     *bufio.Reader
	codec  api.Codec
	cancel context.CancelFunc
}

// Next returns the next LeaseBatch frame. A server-side close surfaces as
// io.EOF; anything else mid-frame is an error.
func (ls *LeaseStream) Next() (*api.LeaseBatch, error) {
	payload, err := api.ReadFrame(ls.br)
	if err != nil {
		return nil, err
	}
	var lb api.LeaseBatch
	if err := ls.codec.Unmarshal(payload, &lb); err != nil {
		return nil, fmt.Errorf("client: lease stream decode: %w", err)
	}
	return &lb, nil
}

// Close tears the stream down. Safe to call concurrently with Next (it
// unblocks a blocked Next with an error).
func (ls *LeaseStream) Close() error {
	ls.cancel()
	return ls.body.Close()
}

// StreamLeases opens a lease stream for a registered worker with a pipeline
// depth of batch assignments (0 = server default). While the stream is open
// the server renews the worker's registration and every held lease — no
// heartbeats needed — and pushes grants and cancellation notices as frames.
// The codec follows SetCodec, demanded per stream via Accept.
func (c *Client) StreamLeases(ctx context.Context, workerID string, batch int) (*LeaseStream, error) {
	// A worker id is partition-keyed: the stream pins to the partition that
	// registered the worker and grants its leases.
	path := "/v1/workers/" + workerID + "/stream"
	if batch > 0 {
		path += "?batch=" + strconv.Itoa(batch)
	}
	sctx, cancel := context.WithCancel(ctx)
	resp, err := c.send(sctx, http.MethodGet, path, nil, c.binWire.Load())
	if err != nil {
		cancel()
		return nil, err
	}
	codec := api.JSON
	if resp.Header.Get("Content-Type") == api.ContentTypeStreamBinary {
		codec = api.Binary
	} else if c.binWire.Load() {
		resp.Body.Close()
		cancel()
		return nil, refuseJSONReply("the lease stream")
	}
	return &LeaseStream{
		body:   resp.Body,
		br:     bufio.NewReader(resp.Body),
		codec:  codec,
		cancel: cancel,
	}, nil
}

// ReportBatch reports many finished assignments in one request; the server
// journals the whole batch with a single WAL write. Results are positional:
// results[i] answers reports[i]. Items whose lease already expired (for
// example a retry after a dropped connection where the first attempt
// landed) come back Stale and are never double-counted.
func (c *Client) ReportBatch(ctx context.Context, workerID string, reports []api.ReportItem) ([]api.ReportResponse, error) {
	var resp api.ReportBatchResponse
	err := c.do(ctx, http.MethodPost, "/v1/workers/"+workerID+"/reports",
		&api.ReportBatchRequest{Reports: reports}, &resp)
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(reports) {
		return nil, fmt.Errorf("client: report batch answered %d results for %d reports", len(resp.Results), len(reports))
	}
	return resp.Results, nil
}
