package testkit

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	flagName  = regexp.MustCompile("`-([a-z0-9-]+)`")
	flagValue = regexp.MustCompile("`([^`]*)`")
)

// FlagsMatchTable fails t unless fs's flags, names and defaults, are the
// rows of the Markdown table under the line of the file at path that starts
// with heading. A row's first cell names one or more flags (`-a`, `-b`);
// its second cell gives their defaults in the same order, each in
// backticks, and anything after them is commentary. A cell with no
// backticked value (off, —) is the zero value, and any zero value matches
// another: `0` documents a zero duration.
func FlagsMatchTable(t *testing.T, fs *flag.FlagSet, path, heading string) {
	t.Helper()
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	in := false
	for _, line := range strings.Split(string(doc), "\n") {
		switch {
		case strings.HasPrefix(line, heading):
			in = true
		case in && strings.HasPrefix(line, "|"):
			rows = append(rows, line)
		case in && len(rows) > 0:
			in = false
		}
	}
	if len(rows) < 3 {
		t.Fatalf("%s: no flag table under %q", path, heading)
	}
	documented := map[string]string{}
	for _, row := range rows[2:] { // past the header and the rule
		cells := strings.Split(row, "|")
		if len(cells) < 4 {
			t.Fatalf("%s: malformed row %q", path, row)
		}
		var names, defaults []string
		for _, m := range flagName.FindAllStringSubmatch(cells[1], -1) {
			names = append(names, m[1])
		}
		for _, m := range flagValue.FindAllStringSubmatch(cells[2], -1) {
			defaults = append(defaults, m[1])
		}
		for i, name := range names {
			switch {
			case len(defaults) == 0:
				documented[name] = ""
			case len(defaults) == len(names):
				documented[name] = defaults[i]
			default:
				t.Fatalf("%s: row %q names %d flags but gives %d defaults", path, row, len(names), len(defaults))
			}
		}
	}
	zero := func(v string) bool { return v == "" || v == "0" || v == "0s" || v == "false" }
	var declared []*flag.Flag
	fs.VisitAll(func(f *flag.Flag) { declared = append(declared, f) })
	for _, f := range declared {
		want, ok := documented[f.Name]
		switch {
		case !ok:
			t.Errorf("-%s (default %q) is missing from %s", f.Name, f.DefValue, path)
		case want != f.DefValue && !(zero(want) && zero(f.DefValue)):
			t.Errorf("-%s defaults to %q, %s says %q", f.Name, f.DefValue, path, want)
		}
		delete(documented, f.Name)
	}
	for name := range documented {
		t.Errorf("%s documents -%s, which %s does not declare", path, name, fs.Name())
	}
}
