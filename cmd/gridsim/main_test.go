package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gridsched"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.txt from this tree's runs")

func TestRunSmallSimulation(t *testing.T) {
	if err := run([]string{"-tasks", "120", "-sites", "3", "-capacity", "1500", "-alg", "rest"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunJSONOutput(t *testing.T) {
	if err := run([]string{"-tasks", "80", "-sites", "2", "-capacity", "1500", "-json"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunListAlgorithms(t *testing.T) {
	if err := run([]string{"-algs"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadAlgorithm(t *testing.T) {
	if err := run([]string{"-tasks", "50", "-alg", "bogus"}, io.Discard); err == nil {
		t.Fatal("accepted bogus algorithm")
	}
}

func TestRunRejectsMissingTrace(t *testing.T) {
	if err := run([]string{"-trace", "/definitely/not/here.json"}, io.Discard); err == nil {
		t.Fatal("accepted missing trace file")
	}
}

// TestRunWritesEventTimeline pins the simulator's decisions: for every
// strategy of -algs, one run at -tasks 1500 -sites 10 -workers 4 must give
// the SHA-256 digests of its -json result and of its -events timeline that
// testdata/digests.txt records. Regenerate them with -update only when a
// decision is meant to change, and say why.
func TestRunWritesEventTimeline(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the digests are of amd64 output; the Go spec lets %s fuse multiply-adds, which can change the bytes", runtime.GOARCH)
	}
	const golden = "testdata/digests.txt"
	want := map[string]string{}
	if !*update {
		data, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			// "<json digest> <events digest> <algorithm>"; names may hold spaces.
			if f := strings.SplitN(line, " ", 3); len(f) == 3 {
				want[f[2]] = f[0] + " " + f[1]
			}
		}
	}
	var lines strings.Builder
	for _, alg := range gridsched.AlgorithmNames() {
		t.Run(alg, func(t *testing.T) {
			events := filepath.Join(t.TempDir(), "events.jsonl")
			var result bytes.Buffer
			if err := run([]string{"-tasks", "1500", "-sites", "10", "-workers", "4", "-alg", alg, "-json", "-events", events}, &result); err != nil {
				t.Fatal(err)
			}
			timeline, err := os.ReadFile(events)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%x %x", sha256.Sum256(result.Bytes()), sha256.Sum256(timeline))
			fmt.Fprintf(&lines, "%s %s\n", got, alg)
			if !*update && got != want[alg] {
				t.Errorf("digests %s, %s records %q: a decision changed", got, golden, want[alg])
			}
		})
	}
	if *update {
		if err := os.WriteFile(golden, []byte(lines.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
