package testkit

import (
	"os"
	"testing"

	"gridsched/internal/service/client"
)

// WireCodec puts c on the wire format GRIDSCHED_TEST_CODEC names ("json"
// or "binary"; unset keeps JSON) and returns it. The CI codec matrix runs
// the service and client suites once per format through it. A bad value
// fails the test: a typo silently testing JSON twice is the failure the
// matrix exists to prevent.
func WireCodec(t testing.TB, c *client.Client) *client.Client {
	t.Helper()
	if mode := os.Getenv("GRIDSCHED_TEST_CODEC"); mode != "" {
		if err := c.SetCodec(mode); err != nil {
			t.Fatalf("GRIDSCHED_TEST_CODEC: %v", err)
		}
	}
	return c
}
