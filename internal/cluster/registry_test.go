package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"hybriddb/internal/obsx/metrics"
	"hybriddb/internal/routing"
)

var update = flag.Bool("update", false, "rewrite testdata/registry.golden")

const registryGolden = "testdata/registry.golden"

// TestRegistryGolden pins every series a freshly booted central and site
// register — names and labels, not values — so a renamed, added or dropped
// series shows up as a diff of testdata/registry.golden. An intentional
// change to the registry regenerates it with -update.
func TestRegistryGolden(t *testing.T) {
	_, central, sites, teardown := bootClusterNodes(t, smokeConfig(1), routing.AlwaysLocal{})
	defer teardown()
	var buf bytes.Buffer
	for _, node := range []struct {
		role string
		reg  *metrics.Registry
	}{{"central", central.Metrics()}, {"site", sites[0].Metrics()}} {
		snap := node.reg.Snapshot()
		names := make([]string, 0, len(snap))
		for name := range snap {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&buf, "%s %s\n", node.role, name)
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
