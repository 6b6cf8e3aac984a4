package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"hybriddb/internal/obsx/metrics"
	"hybriddb/internal/routing"
)

var update = flag.Bool("update", false, "rewrite testdata/registry.golden")

const registryGolden = "testdata/registry.golden"

// TestRegistryGolden pins every series a freshly booted central and site
// register — names, labels and exposition kinds, not values — so a renamed,
// added or dropped series, or one that changes kind (counter to gauge,
// histogram to summary), shows up as a diff of testdata/registry.golden. An
// intentional change to the registry regenerates it with -update.
func TestRegistryGolden(t *testing.T) {
	_, central, sites, teardown := bootClusterNodes(t, smokeConfig(1), routing.AlwaysLocal{})
	defer teardown()
	var buf bytes.Buffer
	for _, node := range []struct {
		role string
		reg  *metrics.Registry
	}{{"central", central.Metrics()}, {"site", sites[0].Metrics()}} {
		kinds := familyKinds(t, node.reg)
		snap := node.reg.Snapshot()
		names := make([]string, 0, len(snap))
		for name := range snap {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			family, _, _ := strings.Cut(name, "{")
			kind, ok := kinds[family]
			for _, suffix := range []string{"_count", "_sum", "_p50", "_p95"} {
				if !ok {
					kind, ok = kinds[strings.TrimSuffix(family, suffix)]
				}
			}
			if !ok {
				t.Errorf("%s %s: no # TYPE line names its family", node.role, name)
			}
			fmt.Fprintf(&buf, "%s %s %s\n", node.role, name, kind)
		}
	}
	if *update {
		if err := os.WriteFile(registryGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", registryGolden, buf.Len())
		return
	}
	want, err := os.ReadFile(registryGolden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("registered series diverged from %s:\n%s\nIf the registry changed intentionally, re-run with -update.",
			registryGolden, buf.String())
	}
}

// familyKinds reads each metric family's kind off the # TYPE lines of the
// registry's Prometheus exposition.
func familyKinds(t *testing.T, reg *metrics.Registry) map[string]string {
	t.Helper()
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]string)
	for _, line := range strings.Split(text.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			kinds[f[2]] = f[3]
		}
	}
	return kinds
}
