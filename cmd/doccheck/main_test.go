package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDoccheckFindsBrokenLinks(t *testing.T) {
	dir := t.TempDir()
	write(t, filepath.Join(dir, "README.md"), strings.Join([]string{
		"# Top",
		"",
		"Good: [guide](docs/GUIDE.md), [section](docs/GUIDE.md#real-section),",
		"[self](#top), [ext](https://example.com/nope).",
		"",
		"Bad: [gone](docs/MISSING.md) and [ghost](docs/GUIDE.md#no-such-heading).",
		"",
		"```sh",
		"echo [not-a-link](nowhere.md)",
		"```",
	}, "\n"))
	write(t, filepath.Join(dir, "docs", "GUIDE.md"), strings.Join([]string{
		"# Guide",
		"",
		"## Real Section",
		"",
		"## Recovery",
		"",
		"## Recovery",
		"",
		"First [dup](#recovery), second [dup](#recovery-1), absent [dup](#recovery-2).",
		"Back to [readme](../README.md).",
	}, "\n"))

	problems, err := run([]string{filepath.Join(dir, "README.md"), filepath.Join(dir, "docs")})
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 3 {
		t.Fatalf("found %d problems, want 3:\n%s", len(problems), strings.Join(problems, "\n"))
	}
	joined := strings.Join(problems, "\n")
	for _, want := range []string{"MISSING.md", "no-such-heading", "recovery-2"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("problems miss %q:\n%s", want, joined)
		}
	}
	for _, never := range []string{"nowhere.md", "example.com"} {
		if strings.Contains(joined, never) {
			t.Fatalf("false positive on %q:\n%s", never, joined)
		}
	}
}

func TestDoccheckCapsChangesEntries(t *testing.T) {
	dir := t.TempDir()
	// entry is the first line of entry n: its two-word label, then text.
	entry := func(n int, text string) string { return fmt.Sprintf("PR %d%s", n, text) }
	words := func(n int) string { return strings.Repeat(" word", n) }
	write(t, filepath.Join(dir, "CHANGES.md"), strings.Join([]string{
		entry(capFrom-1, words(160)), // before the cap
		entry(capFrom, words(148)),   // 150 words: at the cap
		entry(capFrom+1, words(149)),
		entry(capFrom+1, " fix-up: two"), // an entry may run over several lines
		"lines" + words(146),
		"",
		entry(capFrom+2, " short."),
	}, "\n"))
	problems, err := run([]string{filepath.Join(dir, "CHANGES.md")})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(problems, "\n")
	if len(problems) != 2 || !strings.Contains(joined, ":3: "+entry(capFrom+1, " entry has 151 words")) || !strings.Contains(joined, ":4: "+entry(capFrom+1, " entry has 151 words")) {
		t.Fatalf("want lines 3 and 4 over the cap, got:\n%s", joined)
	}
}

func TestSlugify(t *testing.T) {
	for heading, want := range map[string]string{
		"# Fair-share arbitration":          "fair-share-arbitration",
		"## On-disk formats":                "on-disk-formats",
		"### POST /v1/jobs — submit a job":  "post-v1jobs--submit-a-job",
		"Quickstart: the scheduler service": "quickstart-the-scheduler-service",
		"## wal_record fields":              "wal_record-fields",
	} {
		h := strings.TrimLeft(heading, "#")
		if got := slugify(h); got != want {
			t.Fatalf("slugify(%q) = %q, want %q", heading, got, want)
		}
	}
}

// TestDoccheckHoldsProseBudget: a file named in budget may grow to its cap
// and not a byte past it, whether named or found in a directory; a file
// the budget does not name has no cap.
func TestDoccheckHoldsProseBudget(t *testing.T) {
	t.Chdir(t.TempDir())
	fill := func(path string, n int) {
		write(t, path, strings.Repeat("a", n))
	}
	fill("README.md", budget["README.md"])
	fill("docs/PROTOCOL.md", budget["docs/PROTOCOL.md"])
	fill("NOTES.md", 1<<20)
	problems, err := run([]string{"README.md", "docs", "NOTES.md"})
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("files at their caps: %v", problems)
	}

	fill("README.md", budget["README.md"]+1)
	fill("docs/PROTOCOL.md", budget["docs/PROTOCOL.md"]+1)
	problems, err = run([]string{"./README.md", "docs", "NOTES.md"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		fmt.Sprintf("./README.md: %d bytes, over its budget of %d: cut prose to make room", budget["README.md"]+1, budget["README.md"]),
		fmt.Sprintf("docs/PROTOCOL.md: %d bytes, over its budget of %d: cut prose to make room", budget["docs/PROTOCOL.md"]+1, budget["docs/PROTOCOL.md"]),
	}
	if strings.Join(problems, "\n") != strings.Join(want, "\n") {
		t.Fatalf("files one byte over their caps:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
}

// TestRepositoryDocsAreClean runs the checker over the real README,
// PERFORMANCE.md, docs/ tree and CHANGES.md, so `go test` fails on a broken
// doc link, an over-long entry or a file over its budget even before the
// dedicated CI job runs.
func TestRepositoryDocsAreClean(t *testing.T) {
	root := "../.."
	if _, err := os.Stat(filepath.Join(root, "README.md")); err != nil {
		t.Skip("repository root not reachable from test binary")
	}
	t.Chdir(root)
	problems, err := run([]string{"README.md", "PERFORMANCE.md", "docs", "CHANGES.md"})
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 {
		t.Fatalf("broken documentation links:\n%s", strings.Join(problems, "\n"))
	}
}
