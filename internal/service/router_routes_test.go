package service_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"gridsched/internal/partition"
	"gridsched/internal/service"
)

// partitionLocal lists the service routes the partition router refuses by
// design: per-partition operator actions with no routing key
// (docs/PARTITIONING.md).
var partitionLocal = map[string]bool{"GET /v1/replication/stream": true}

// TestRouterMountsEveryServiceRoute: the partition router forwards or
// aggregates every route of the service's table except the partition-local
// ones, which it refuses with its "no routing key" 404. Without this, a
// route added to the service alone is a silent 404 behind the router.
func TestRouterMountsEveryServiceRoute(t *testing.T) {
	part := httptest.NewServer(newService(t, service.Config{}).Handler())
	t.Cleanup(part.Close)
	rt, err := partition.New(partition.Config{Partitions: []string{part.URL}})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	wildcard := regexp.MustCompile(`\{[a-z]+\}`)
	for _, route := range service.RoutesForTest() {
		method, path, _ := strings.Cut(route.Pattern, " ")
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, wildcard.ReplaceAllString(path, "x1"), nil).WithContext(ctx))
		cancel()
		refused := rec.Code == http.StatusNotFound && strings.Contains(rec.Body.String(), "has no routing key")
		switch {
		case refused && !partitionLocal[route.Pattern]:
			t.Errorf("%s: the router does not mount it (%d %s); add it to partition.Router.Handler, or to partitionLocal and docs/PARTITIONING.md",
				route.Pattern, rec.Code, strings.TrimSpace(rec.Body.String()))
		case !refused && partitionLocal[route.Pattern]:
			t.Errorf("%s: listed as partition-local, but the router answered %d %s", route.Pattern, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
	}
}
