package cliutil

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestLoadNetworkExamples(t *testing.T) {
	for name, classes := range map[string]int{"canada2": 2, "canada4": 4, "tandem3": 1} {
		n, err := LoadNetwork("", name, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(n.Classes) != classes {
			t.Errorf("%s: %d classes", name, len(n.Classes))
		}
	}
}

func TestLoadNetworkErrors(t *testing.T) {
	if _, err := LoadNetwork("", "", nil); err == nil {
		t.Error("expected error with neither spec nor example")
	}
	if _, err := LoadNetwork("x.json", "canada2", nil); err == nil {
		t.Error("expected mutual-exclusion error")
	}
	if _, err := LoadNetwork("", "mystery", nil); err == nil {
		t.Error("expected unknown-example error")
	}
	if _, err := LoadNetwork("", "tandemXL", nil); err == nil {
		t.Error("expected bad tandem error")
	}
	if _, err := LoadNetwork("", "tandem99", nil); err == nil {
		t.Error("expected tandem cap error")
	}
	if _, err := LoadNetwork("/nonexistent/spec.json", "", nil); err == nil {
		t.Error("expected file error")
	}
}

func TestLoadNetworkRateOverride(t *testing.T) {
	n, err := LoadNetwork("", "canada2", []float64{5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if n.Classes[0].Rate != 5 || n.Classes[1].Rate != 7 {
		t.Errorf("rates = %v, %v", n.Classes[0].Rate, n.Classes[1].Rate)
	}
	if _, err := LoadNetwork("", "canada2", []float64{5}); err == nil {
		t.Error("expected rate-count error")
	}
	if _, err := LoadNetwork("", "canada2", []float64{5, -1}); err == nil {
		t.Error("expected invalid-rate error")
	}
}

func TestLoadNetworkFromSpecFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.json")
	spec := `{
	  "name": "mini",
	  "nodes": ["a", "b"],
	  "channels": [{"name": "ab", "from": "a", "to": "b", "capacity_bps": 1000}],
	  "classes": [{"name": "c", "rate_msg_per_sec": 1, "mean_length_bits": 100, "route": ["ab"], "window": 2}]
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := LoadNetwork(path, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "mini" || n.Classes[0].Window != 2 {
		t.Errorf("loaded %+v", n)
	}
}

func TestParseWindows(t *testing.T) {
	v, err := ParseWindows("1, 2,3")
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 3 || v[0] != 1 || v[2] != 3 {
		t.Errorf("v = %v", v)
	}
	if got, err := ParseWindows(""); got != nil || err != nil {
		t.Error("empty string should give nil, nil")
	}
	if _, err := ParseWindows("1,x"); err == nil {
		t.Error("expected parse error")
	}
}

func TestParseRates(t *testing.T) {
	v, err := ParseRates("1.5,2")
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 2 || v[0] != 1.5 {
		t.Errorf("v = %v", v)
	}
	if got, err := ParseRates(""); got != nil || err != nil {
		t.Error("empty string should give nil, nil")
	}
	if _, err := ParseRates("a"); err == nil {
		t.Error("expected parse error")
	}
}

func TestParseTopo(t *testing.T) {
	n, err := ParseTopo("clos:6,3,12", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Nodes) != 9 || len(n.Channels) != 18 || len(n.Classes) != 12 {
		t.Fatalf("clos:6,3,12 gave %d nodes, %d channels, %d classes",
			len(n.Nodes), len(n.Channels), len(n.Classes))
	}
	again, err := ParseTopo("clos:6,3,12", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(n, again) {
		t.Fatal("same spec and seed must generate the identical network")
	}
	if _, err := ParseTopo("scalefree:16,2,10", 7); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseTopo("mesh:12,5,10", 7); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"",                // no family
		"clos",            // no params
		"clos:6,3",        // too few params
		"clos:6,3,12,9",   // too many params
		"clos:a,3,12",     // non-integer
		"torus:6,3,12",    // unknown family
		"clos:1,3,12",     // generator-level validation
		"mesh:12,9999,10", // too many chords
	} {
		if _, err := ParseTopo(bad, 1); err == nil {
			t.Errorf("spec %q: expected an error", bad)
		}
	}
}

// TestParseTopoBounds: a spec whose network would exceed the node, channel
// or class bound is refused before any generator runs, with an error that
// names the bound; every spec the repository's docs, CI, benchmark and
// tests use still parses.
func TestParseTopoBounds(t *testing.T) {
	for spec, bound := range map[string]int{
		"clos:100000,100000,1": maxTopoNodes,    // a leaves parameter
		"clos:600,600,4":       maxTopoNodes,    // 1,200 nodes
		"clos:1000,20,4":       maxTopoChannels, // 20,000 channels
		"clos:12,6,5000":       maxTopoClasses,
		"scalefree:2000,2,4":   maxTopoNodes,
		"scalefree:1024,20,4":  maxTopoChannels, // 20,270 channels
		"mesh:100,50000,4":     maxTopoChannels, // an EXTRA parameter
		"mesh:1024,16000,4":    maxTopoChannels, // 17,024 channels
		"mesh:100,50,2000":     maxTopoClasses,
		"mesh:-5,0,4":          maxTopoNodes,
	} {
		_, err := ParseTopo(spec, 1)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(bound)) {
			t.Errorf("spec %q: err = %v, want one naming the bound %d", spec, err, bound)
		}
	}
	for _, spec := range []string{
		"clos:4,2,8", "clos:5,2,8", "clos:6,3,12", "clos:8,4,24", "clos:12,6,48",
		"scalefree:16,2,10", "scalefree:80,2,48",
		"mesh:8,3,6", "mesh:8,4,4", "mesh:10,3,3", "mesh:12,4,4", "mesh:48,24,24",
		"mesh:64,64,48", "mesh:96,48,48", "mesh:100,50,80", "mesh:256,256,48",
	} {
		if _, err := ParseTopo(spec, 1); err != nil {
			t.Errorf("spec %q: %v", spec, err)
		}
	}
}
