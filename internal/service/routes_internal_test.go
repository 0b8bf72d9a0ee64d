package service

import (
	"os"
	"sort"
	"strings"
	"testing"
)

// documentedPaths returns the paths the package comment's # Endpoints
// section names: each bullet's head, before its " — ", is a comma-separated
// list of "METHOD /path" or bare "/path/" entries.
func documentedPaths(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("service.go")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n// # Endpoints\n")
	if !ok {
		t.Fatal("service.go's package comment has no # Endpoints section")
	}
	section, _, _ = strings.Cut(section, "\n// #")
	var bullets []string
	for _, line := range strings.Split(section, "\n") {
		switch {
		case strings.HasPrefix(line, "//   - "):
			bullets = append(bullets, strings.TrimPrefix(line, "//   - "))
		case strings.HasPrefix(line, "//     ") && len(bullets) > 0:
			bullets[len(bullets)-1] += " " + strings.TrimPrefix(line, "//     ")
		}
	}
	paths := map[string]bool{}
	for _, b := range bullets {
		head, _, ok := strings.Cut(b, " — ")
		if !ok {
			t.Fatalf("endpoint bullet %q has no \" — \" after its routes", b)
		}
		for _, entry := range strings.Split(head, ",") {
			fields := strings.Fields(entry)
			paths[fields[len(fields)-1]] = true
		}
	}
	return paths
}

// TestRoutesMatchDocs: the paths Handler mounts, pprof's included, are the
// paths the package comment documents, so a route cannot be added or removed
// without its docs. A documented path ending in "/" covers its subtree.
func TestRoutesMatchDocs(t *testing.T) {
	docs := documentedPaths(t)
	mounted := map[string]bool{}
	for path := range (&Server{EnablePprof: true}).routes() {
		for doc := range docs {
			if strings.HasSuffix(doc, "/") && strings.HasPrefix(path, doc) {
				path = doc
			}
		}
		mounted[path] = true
	}
	var missing, undocumented []string
	for path := range docs {
		if !mounted[path] {
			missing = append(missing, path)
		}
	}
	for path := range mounted {
		if !docs[path] {
			undocumented = append(undocumented, path)
		}
	}
	sort.Strings(missing)
	sort.Strings(undocumented)
	if len(missing) > 0 || len(undocumented) > 0 {
		t.Errorf("documented but not mounted: %q; mounted but not documented: %q", missing, undocumented)
	}
	if len(mounted) < 10 {
		t.Errorf("only %d routes compared: %v; the doc parse is broken", len(mounted), mounted)
	}
}
