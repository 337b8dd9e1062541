package metrics_test

import (
	"bytes"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	. "gridsched/internal/metrics"
	"gridsched/internal/testkit"
)

// TestReadRefuses: the defects Read exists to catch, each a body some
// emitter of this repository once wrote.
func TestReadRefuses(t *testing.T) {
	for name, tc := range map[string]struct{ body, want string }{
		"a second # TYPE (a router passing every partition's through)": {
			"# TYPE a_total counter\na_total{partition=\"0\"} 1\n# TYPE a_total counter\na_total{partition=\"1\"} 2\n",
			"second # TYPE for a_total"},
		"a split family (two families interleaved row by row)": {
			"# TYPE a gauge\n# TYPE b gauge\na{job=\"j1\"} 1\nb{job=\"j1\"} 2\n",
			"sample a inside family b"},
		"a sample ahead of any # TYPE":           {"a 1\n", "no # TYPE above it"},
		"a sample under another family's # TYPE": {"# TYPE a gauge\na 1\nb 2\n", "sample b inside family a"},
		"a duplicate series":                     {"# TYPE a gauge\na{x=\"1\"} 1\na{x=\"1\"} 2\n", "appears twice"},
		"a summary series that is neither":       {"# TYPE s summary\ns_sum 1\ns_max 2\n", "sample s_max inside family s summary"},
		"a suffix on a counter":                  {"# TYPE c counter\nc_count 1\n", "sample c_count inside family c"},
		"an unknown type":                        {"# TYPE h histogram\n", "unknown type"},
		"a value that is not a number":           {"# TYPE a gauge\na one\n", "not a number"},
		"an unterminated label value":            {"# TYPE a gauge\na{x=\"1} 1\n", "malformed label value"},
		"a label with no value":                  {"# TYPE a gauge\na{x} 1\n", "malformed label set"},
		"a label set that does not close":        {"# TYPE a gauge\na{x=\"1\" 1\n", "malformed label set"},
		"labels with no separator":               {"# TYPE a gauge\na{x=\"1\"y=\"2\"} 1\n", "malformed label set"},
	} {
		if _, err := Read(strings.NewReader(tc.body)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error saying %q", name, err, tc.want)
		}
	}
	ms, err := Read(strings.NewReader("# HELP a helps\n\n# TYPE a gauge\na 1\n# a comment\n"))
	if err != nil || len(ms) != 1 || len(ms[0].Samples) != 1 {
		t.Errorf("comments and blank lines: %+v, %v", ms, err)
	}
}

// TestWriteGroupsAndEscapes: metrics of one name merge under one # TYPE
// where the name first appears; a family of two types is refused; label
// values survive the escaping.
func TestWriteGroupsAndEscapes(t *testing.T) {
	awkward := "a\\b \"quoted\"\nsecond line, {x=\"1\"} 1"
	part := func(i string, v int64) []Metric {
		return []Metric{
			{Name: "a_total", Kind: KindCounter, Samples: []Sample{{Labels: []Label{{"partition", i}}, Value: float64(v)}}},
			{Name: "b", Kind: KindGauge, Samples: []Sample{{Labels: []Label{{"partition", i}, {"job", awkward}}, Value: 0.5}}},
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, append(part("0", 1), part("1", 2)...)); err != nil {
		t.Fatal(err)
	}
	const want = "# TYPE a_total counter\n" +
		"a_total{partition=\"0\"} 1\n" +
		"a_total{partition=\"1\"} 2\n" +
		"# TYPE b gauge\n" +
		`b{partition="0",job="a\\b \"quoted\"\nsecond line, {x=\"1\"} 1"} 0.5` + "\n" +
		`b{partition="1",job="a\\b \"quoted\"\nsecond line, {x=\"1\"} 1"} 0.5` + "\n"
	if buf.String() != want {
		t.Fatalf("wrote\n%s\nwant\n%s", buf.String(), want)
	}
	ms, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := testkit.Lookup(ms, "b", "", Label{"partition", "1"}, Label{"job", awkward}); !ok || v != 0.5 {
		t.Fatalf("the escaped label did not read back: %+v", ms)
	}
	clash := []Metric{{Name: "a", Kind: KindGauge}, {Name: "a", Kind: KindCounter}}
	if err := Write(&buf, clash); err == nil {
		t.Fatal("a family declared as both a gauge and a counter was written")
	}
}

// TestValuePrinting: whole numbers print as integers whatever their size,
// anything else the shortest way that reads back, and both survive a Read.
func TestValuePrinting(t *testing.T) {
	for v, want := range map[float64]string{
		0: "0", 123456789012: "123456789012", -3: "-3", 1e6: "1000000", 1e18: "1e+18",
		0.002: "0.002", 2.5: "2.5", 3.2528e-05: "3.2528e-05", 0.06268359375: "0.06268359375",
	} {
		var buf bytes.Buffer
		if err := Write(&buf, []Metric{Fixed("a", KindGauge, v)}); err != nil || buf.String() != "# TYPE a gauge\na "+want+"\n" {
			t.Errorf("%v written as %q (err %v), want %s", v, buf.String(), err, want)
		}
		if ms, err := Read(&buf); err != nil || ms[0].Samples[0].Value != v {
			t.Errorf("%s read back as %+v, %v", want, ms, err)
		}
	}
}

var sampleLine = regexp.MustCompile(`gridsched_[a-z0-9_]*(\{|\s|%)`)

// TestNoExpositionOutsideThisPackage keeps the seam shut: no non-test Go
// file under internal/ or cmd/ outside this package may hold a string that
// is exposition text — a "# TYPE" line, or a gridsched_ metric name followed
// by a label set, a value or a format verb. Declaring a family takes only
// its bare name.
func TestNoExpositionOutsideThisPackage(t *testing.T) {
	for _, root := range []string{"..", "../../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path == "../metrics" {
				return fs.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fset := token.NewFileSet()
			var sc scanner.Scanner
			sc.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
			for {
				pos, tok, lit := sc.Scan()
				if tok == token.EOF {
					break
				}
				if tok != token.STRING {
					continue
				}
				if strings.Contains(lit, "# TYPE") || sampleLine.MatchString(lit) {
					t.Errorf("%s: %s writes exposition text itself; declare a metrics.Family instead", fset.Position(pos), lit)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
