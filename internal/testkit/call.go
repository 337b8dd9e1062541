package testkit

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"gridsched/internal/service/api"
	"gridsched/internal/service/client"
)

// Call is one JSON round trip to a route the Go client has no method for —
// DELETE /v1/jobs/{id}, PUT /v1/tenants/{tenant}, GET /v1/workers, POST
// /v1/assignments/{id}/heartbeat, GET /healthz — sent to cl's current
// endpoint with cl's bearer token. A 2xx reply's body, if any, is decoded
// into a T; any other status is a *client.APIError, as the client's own
// methods return.
func Call[T any](ctx context.Context, cl *client.Client, method, path string, in any) (T, error) {
	var out T
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return out, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, cl.Endpoint()+path, body)
	if err != nil {
		return out, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if cl.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+cl.AuthToken)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e api.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return out, &client.APIError{StatusCode: resp.StatusCode, Message: e.Error}
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && !errors.Is(err, io.EOF) {
		return out, err
	}
	return out, nil
}
