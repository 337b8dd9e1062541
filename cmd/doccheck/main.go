// Command doccheck validates the repository's markdown documentation: it
// walks the given files and directories for .md files, extracts every
// inline link and image, and verifies that relative targets exist —
// including `#anchor` fragments, which are checked against the target
// file's headings using GitHub's slug rules. External (http/https/mailto)
// links are skipped: CI must not flake on someone else's server. In a file
// named CHANGES.md it also holds every entry (a paragraph starting with its
// change number, "PR <n>") numbered 29 or later to at most 150 words, and
// it holds each file named in budget to its byte cap.
//
// Usage (from the repository root, the paths budget is keyed by):
//
//	doccheck README.md PERFORMANCE.md docs CHANGES.md
//
// Exit status is nonzero on any finding, with one line per finding. The CI
// docs job runs it over README.md, PERFORMANCE.md, docs/ and CHANGES.md so
// the documentation surface cannot rot or grow silently.
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"unicode"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: doccheck <file-or-dir>...")
		os.Exit(2)
	}
	problems, err := run(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// run checks every markdown file under the given paths and returns one
// line per finding.
func run(paths []string) ([]string, error) {
	var files []string
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			files = append(files, p)
			continue
		}
		err = filepath.WalkDir(p, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".md") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var problems []string
	for _, f := range files {
		ps, err := checkFile(f)
		if err != nil {
			return nil, err
		}
		problems = append(problems, ps...)
	}
	return problems, nil
}

// linkRe matches inline links and images: [text](target) / ![alt](target).
// Targets containing spaces or nested parens are out of scope (the repo
// does not use them).
var linkRe = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

// checkFile validates every relative link in one markdown file, and the
// entry lengths of a CHANGES.md.
func checkFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var problems []string
	if filepath.Base(path) == "CHANGES.md" {
		problems = checkEntries(path, string(data))
	}
	if max, ok := budget[filepath.ToSlash(filepath.Clean(path))]; ok && len(data) > max {
		problems = append(problems, fmt.Sprintf("%s: %d bytes, over its budget of %d: cut prose to make room", path, len(data), max))
	}
	inFence := false
	for ln, line := range strings.Split(string(data), "\n") {
		// Links inside fenced code blocks are literal text, not links.
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if bad := checkTarget(path, target); bad != "" {
				problems = append(problems, fmt.Sprintf("%s:%d: %s", path, ln+1, bad))
			}
		}
	}
	return problems, nil
}

// budget caps the size in bytes of the prose files, keyed by their path from
// the repository root (ROADMAP item 16(b)). A cap is the file's size when it
// was set and is only ever lowered, so prose that is added displaces prose.
// CHANGES.md and ROADMAP.md have none.
var budget = map[string]int{
	"PERFORMANCE.md":       153978,
	"README.md":            23341,
	"docs/ARCHITECTURE.md": 35807,
	"docs/INGRESS.md":      8867,
	"docs/PARTITIONING.md": 9504,
	"docs/PROTOCOL.md":     58971,
	"docs/REPLICATION.md":  21204,
	"docs/SCHEDULING.md":   8814,
}

// Entries of CHANGES.md from capFrom on may hold at most maxEntryWords
// words (ROADMAP item 13(c)).
const (
	capFrom       = 29
	maxEntryWords = 150
)

// entryRe matches the first line of a CHANGES.md entry and captures its PR
// number.
var entryRe = regexp.MustCompile(`^PR (\d+)\b`)

// checkEntries returns one line per CHANGES.md entry over the word cap. An
// entry runs from its "PR <n>" line to the next entry or blank line.
func checkEntries(path, text string) []string {
	var problems []string
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		m := entryRe.FindStringSubmatch(lines[i])
		if m == nil {
			continue
		}
		words := len(strings.Fields(lines[i]))
		for j := i + 1; j < len(lines) && strings.TrimSpace(lines[j]) != "" && !entryRe.MatchString(lines[j]); j++ {
			words += len(strings.Fields(lines[j]))
		}
		if n, _ := strconv.Atoi(m[1]); n >= capFrom && words > maxEntryWords {
			problems = append(problems, fmt.Sprintf("%s:%d: PR %d entry has %d words, over the cap of %d", path, i+1, n, words, maxEntryWords))
		}
	}
	return problems
}

// checkTarget resolves one link target relative to the file containing it
// and returns a description of the problem ("" when the target is fine).
func checkTarget(fromFile, target string) string {
	switch {
	case strings.HasPrefix(target, "http://"),
		strings.HasPrefix(target, "https://"),
		strings.HasPrefix(target, "mailto:"):
		return "" // external; not checked
	}
	file, anchor, _ := strings.Cut(target, "#")
	resolved := fromFile
	if file != "" {
		resolved = filepath.Join(filepath.Dir(fromFile), file)
		if _, err := os.Stat(resolved); err != nil {
			return fmt.Sprintf("broken link %q: %s does not exist", target, resolved)
		}
	}
	if anchor == "" {
		return ""
	}
	if !strings.HasSuffix(resolved, ".md") {
		return "" // anchors into non-markdown files are not checked
	}
	ok, err := hasAnchor(resolved, anchor)
	if err != nil {
		return fmt.Sprintf("broken link %q: %v", target, err)
	}
	if !ok {
		return fmt.Sprintf("broken link %q: no heading slugs to %q in %s", target, anchor, resolved)
	}
	return ""
}

// hasAnchor reports whether the markdown file has a heading whose GitHub
// slug equals anchor, applying GitHub's duplicate rule: the second
// occurrence of a slug becomes slug-1, the third slug-2, and so on.
func hasAnchor(path, anchor string) (bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	inFence := false
	seen := make(map[string]int)
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		heading := strings.TrimLeft(line, "#")
		if heading == line || (heading != "" && heading[0] != ' ') {
			continue // not a heading ("#!/bin/sh", "#anchor")
		}
		slug := slugify(heading)
		if n := seen[slug]; n > 0 {
			seen[slug] = n + 1
			slug = fmt.Sprintf("%s-%d", slug, n)
		} else {
			seen[slug] = 1
		}
		if slug == anchor {
			return true, nil
		}
	}
	return false, nil
}

// slugify applies GitHub's heading-to-anchor rules: lowercase, drop
// everything but letters/digits/underscores/spaces/hyphens, spaces to
// hyphens.
func slugify(heading string) string {
	heading = strings.TrimSpace(heading)
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		case r > 127 && (unicode.IsLetter(r) || unicode.IsDigit(r)):
			b.WriteRune(r) // unicode letters survive slugging; punctuation does not
		}
	}
	return b.String()
}
