package shard

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/netmodel"
	"repro/internal/numeric"
	"repro/internal/topo"
)

// TestMain doubles as the worker binary: the coordinator tests exec the
// test binary itself with SHARD_WORKER_MODE=1, the standard Go
// helper-process pattern.
func TestMain(m *testing.M) {
	if os.Getenv("SHARD_WORKER_MODE") == "1" {
		os.Exit(WorkerMain())
	}
	os.Exit(m.Run())
}

func testNetwork() *netmodel.Network { return topo.Canada2Class(12.5, 12.5) }

func testCoreOptions() core.Options {
	return core.Options{
		Search:    core.ExhaustiveSearch,
		MaxWindow: 6,
		Workers:   2,
	}
}

// testShardOptions builds coordinator options that exec this test binary
// in worker mode. Chaos tests append SHARD_FAULT to ExtraEnv.
func testShardOptions(t *testing.T, extraEnv ...string) Options {
	t.Helper()
	return Options{
		Dir:          filepath.Join(t.TempDir(), "spool"),
		WorkerArgv:   []string{os.Args[0]},
		ExtraEnv:     append([]string{"SHARD_WORKER_MODE=1"}, extraEnv...),
		Procs:        2,
		Slabs:        3,
		Axis:         -1,
		MaxRetries:   2,
		SlabDeadline: time.Minute,
		PollEvery:    10 * time.Millisecond,
		Logf:         t.Logf,
	}
}

// baseline runs the single-process exhaustive search the sharded run
// must reproduce bit-for-bit.
func baseline(t *testing.T) *core.Result {
	t.Helper()
	res, err := core.Dimension(testNetwork(), testCoreOptions())
	if err != nil {
		t.Fatalf("baseline Dimension: %v", err)
	}
	return res
}

// assertMatchesBaseline is the merge-determinism check every chaos path
// ends in: same windows, bit-identical power, same evaluation count.
func assertMatchesBaseline(t *testing.T, res *Result, base *core.Result) {
	t.Helper()
	if got, want := res.Windows.Key(), base.Windows.Key(); got != want {
		t.Fatalf("merged windows %s, baseline %s", got, want)
	}
	if got, want := math.Float64bits(res.Metrics.Power), math.Float64bits(base.Metrics.Power); got != want {
		t.Fatalf("merged power %x (%v) not bit-identical to baseline %x (%v)",
			got, res.Metrics.Power, want, base.Metrics.Power)
	}
	if got, want := res.Evaluations, base.Search.Evaluations; got != want {
		t.Fatalf("merged evaluations %d, baseline %d (candidates scanned twice or skipped)", got, want)
	}
}

func TestBuildManifestPartition(t *testing.T) {
	n := testNetwork()
	for _, tc := range []struct {
		slabs, width int
		want         []SlabRange
	}{
		{slabs: 3, width: 6, want: []SlabRange{{1, 2}, {3, 4}, {5, 6}}},
		{slabs: 4, width: 6, want: []SlabRange{{1, 2}, {3, 4}, {5, 5}, {6, 6}}},
		{slabs: 10, width: 6, want: []SlabRange{{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}, {6, 6}}},
		{slabs: 1, width: 6, want: []SlabRange{{1, 6}}},
	} {
		opts := Options{Slabs: tc.slabs, Axis: -1}
		copts := core.Options{MaxWindow: tc.width}
		m, err := buildManifest(n, copts, &opts)
		if err != nil {
			t.Fatalf("buildManifest(%d slabs): %v", tc.slabs, err)
		}
		if len(m.Slabs) != len(tc.want) {
			t.Fatalf("%d slabs over width %d: got %v, want %v", tc.slabs, tc.width, m.Slabs, tc.want)
		}
		for i, s := range m.Slabs {
			if s != tc.want[i] {
				t.Fatalf("%d slabs over width %d: got %v, want %v", tc.slabs, tc.width, m.Slabs, tc.want)
			}
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	opts := Options{Slabs: 3, Axis: -1}
	copts := testCoreOptions()
	m, err := buildManifest(testNetwork(), copts, &opts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseManifest(data)
	if err != nil {
		t.Fatalf("ParseManifest of own output: %v", err)
	}
	if got.Axis != m.Axis || len(got.Slabs) != len(m.Slabs) || got.Evaluator != m.Evaluator {
		t.Fatalf("round trip mangled manifest: %+v vs %+v", got, m)
	}
	ropts, err := got.coreOptions()
	if err != nil {
		t.Fatal(err)
	}
	if ropts.Evaluator != copts.Evaluator || ropts.Objective != copts.Objective ||
		ropts.Workers != copts.Workers || ropts.ExactEngine != copts.ExactEngine {
		t.Fatalf("coreOptions round trip: %+v", ropts)
	}
	if Hash(data) == Hash(append(data[:len(data)-1], '!')) {
		t.Fatal("hash ignores content")
	}
}

func TestParseManifestRejects(t *testing.T) {
	opts := Options{Slabs: 3, Axis: -1}
	m, err := buildManifest(testNetwork(), testCoreOptions(), &opts)
	if err != nil {
		t.Fatal(err)
	}
	good, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(m *Manifest)) []byte {
		var c Manifest
		if err := json.Unmarshal(good, &c); err != nil {
			t.Fatal(err)
		}
		f(&c)
		b, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := map[string][]byte{
		"empty":         nil,
		"garbage":       []byte("{nope"),
		"unknown field": []byte(`{"version":1,"kind":"shard-manifest","bogus":1}`),
		"trailing data": append(append([]byte{}, good...), []byte("{}")...),
		"bad version":   mutate(func(m *Manifest) { m.Version = 99 }),
		"bad kind":      mutate(func(m *Manifest) { m.Kind = "tarot-reading" }),
		"no network":    mutate(func(m *Manifest) { m.Network = nil }),
		"bad evaluator": mutate(func(m *Manifest) { m.Evaluator = "vibes" }),
		"bad objective": mutate(func(m *Manifest) { m.Objective = "vibes" }),
		"no evaluator":  mutate(func(m *Manifest) { m.Evaluator = "" }),
		"no objective":  mutate(func(m *Manifest) { m.Objective = "" }),
		"dim mismatch":  mutate(func(m *Manifest) { m.Hi = m.Hi[:1] }),
		"axis range":    mutate(func(m *Manifest) { m.Axis = 7 }),
		"no slabs":      mutate(func(m *Manifest) { m.Slabs = nil }),
		"slab gap":      mutate(func(m *Manifest) { m.Slabs[1].From++ }),
		"slab overlap":  mutate(func(m *Manifest) { m.Slabs[1].From-- }),
		"slab short":    mutate(func(m *Manifest) { m.Slabs = m.Slabs[:2] }),
		"inverted box":  mutate(func(m *Manifest) { m.Lo[0] = m.Hi[0] + 1; m.Slabs = []SlabRange{{m.Lo[0], m.Hi[0]}} }),
	}
	for name, data := range cases {
		if _, err := ParseManifest(data); err == nil {
			t.Errorf("ParseManifest accepted %s", name)
		}
	}
	if _, err := ParseManifest(good); err != nil {
		t.Fatalf("ParseManifest rejected the good manifest: %v", err)
	}
}

func TestParseSlabResultRejects(t *testing.T) {
	hash := strings.Repeat("ab", 32)
	good, err := json.Marshal(&SlabResult{
		Version: FormatVersion, Kind: resultKind, ManifestHash: hash,
		Slab: 1, Epoch: 1, Best: []int{2, 3}, BestValue: 0.25, Evaluations: 36, Strides: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSlabResult(good); err != nil {
		t.Fatalf("good result rejected: %v", err)
	}
	cases := map[string][]byte{
		"empty":          nil,
		"torn prefix":    good[:len(good)/2],
		"unknown field":  []byte(`{"version":1,"kind":"shard-slab-result","extra":true}`),
		"trailing data":  append(append([]byte{}, good...), 'x'),
		"bad kind":       []byte(`{"version":1,"kind":"shard-manifest","manifest_hash":"` + hash + `"}`),
		"bad version":    []byte(`{"version":7,"kind":"shard-slab-result","manifest_hash":"` + hash + `"}`),
		"bad hash":       []byte(`{"version":1,"kind":"shard-slab-result","manifest_hash":"xyz"}`),
		"negative slab":  []byte(`{"version":1,"kind":"shard-slab-result","manifest_hash":"` + hash + `","slab":-1}`),
		"negative evals": []byte(`{"version":1,"kind":"shard-slab-result","manifest_hash":"` + hash + `","evaluations":-5}`),
		"negative best":  []byte(`{"version":1,"kind":"shard-slab-result","manifest_hash":"` + hash + `","best":[2,-3]}`),
		"missing epoch":  []byte(`{"version":2,"kind":"shard-slab-result","manifest_hash":"` + hash + `","slab":1,"best_value":0.25,"strides":2}`),
	}
	for name, data := range cases {
		if _, err := ParseSlabResult(data); err == nil {
			t.Errorf("ParseSlabResult accepted %s", name)
		}
	}
}

func TestSlabResultValidateFor(t *testing.T) {
	opts := Options{Slabs: 3, Axis: -1}
	m, err := buildManifest(testNetwork(), testCoreOptions(), &opts)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := json.Marshal(m)
	hash := Hash(data)
	res := &SlabResult{
		Version: FormatVersion, Kind: resultKind, ManifestHash: hash,
		Slab: 1, Epoch: 1, Best: []int{3, 4}, BestValue: 0.25, Evaluations: 12, Strides: 2,
	}
	if err := res.ValidateFor(m, hash, 1); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	bad := *res
	bad.ManifestHash = strings.Repeat("00", 32)
	if err := bad.ValidateFor(m, hash, 1); err == nil {
		t.Error("wrong manifest hash accepted")
	}
	bad = *res
	bad.Slab = 2
	if err := bad.ValidateFor(m, hash, 1); err == nil {
		t.Error("wrong slab index accepted")
	}
	bad = *res
	bad.Best = []int{1, 4} // axis value 1 is outside slab 1's range [3,4]
	if err := bad.ValidateFor(m, hash, 1); err == nil {
		t.Error("best outside the slab box accepted")
	}
	bad = *res
	bad.Strides = 1
	if err := bad.ValidateFor(m, hash, 1); err == nil {
		t.Error("incomplete stride count accepted")
	}
}

func TestParseSlabCheckpointTornTail(t *testing.T) {
	hash := strings.Repeat("cd", 32)
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	if err := enc.Encode(ckptHeader{Version: FormatVersion, Kind: ckptKind, ManifestHash: hash, Slab: 0, Epoch: 1, Dim: 2}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(ckptRecord{Stride: 1, Epoch: 1, Best: "2,3", BestValue: 0.5, Evaluations: 6}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(ckptRecord{Stride: 2, Epoch: 1, Best: "2,3", BestValue: 0.5, Evaluations: 12}); err != nil {
		t.Fatal(err)
	}
	sb.WriteString(`{"stride":3,"best":"2,`) // torn mid-append
	cp, err := ParseSlabCheckpoint([]byte(sb.String()))
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if !cp.TornTail || cp.Records != 2 || cp.Last == nil || cp.Last.Stride != 2 {
		t.Fatalf("got records=%d torn=%v last=%+v", cp.Records, cp.TornTail, cp.Last)
	}

	// A torn/bad HEADER is not tolerated — identity must be established.
	if _, err := ParseSlabCheckpoint([]byte(`{"version":1,"kind":`)); err == nil {
		t.Error("torn header accepted")
	}
	// Non-advancing strides mean a corrupt rewrite, not a torn append.
	two := strings.SplitAfterN(sb.String(), "\n", 3)
	dup := two[0] + two[1] + two[1]
	if _, err := ParseSlabCheckpoint([]byte(dup)); err == nil {
		t.Error("duplicate stride accepted")
	}
	// A record stamped with a different epoch than the header is a
	// protocol violator's append: dropped with everything after it, like
	// a torn tail, without poisoning the intact prefix.
	stale := two[0] + two[1] + `{"stride":5,"epoch":9,"best_value":0.5,"evaluations":20}` + "\n"
	cp, err = ParseSlabCheckpoint([]byte(stale))
	if err != nil {
		t.Fatalf("stale-epoch record should be dropped, not fatal: %v", err)
	}
	if !cp.TornTail || cp.Records != 1 || cp.Last == nil || cp.Last.Stride != 1 {
		t.Fatalf("stale-epoch tail: got records=%d torn=%v last=%+v", cp.Records, cp.TornTail, cp.Last)
	}
	// A best key of the wrong dimension is corrupt.
	bad := two[0] + `{"stride":1,"epoch":1,"best":"2,3,4","best_value":0.5,"evaluations":6}` + "\n"
	if _, err := ParseSlabCheckpoint([]byte(bad)); err == nil {
		t.Error("wrong-dimension best key accepted")
	}
}

// TestSlabCheckpointCrashStates feeds every state a crash during a
// finished slab's last checkpoint append can leave — the record cut at
// every byte, and cut then NUL-padded to its full length — into a
// relaunch at the next epoch. Each relaunch must resume from the intact
// prefix and write the same slab result as the uninterrupted worker,
// evaluation count included.
func TestSlabCheckpointCrashStates(t *testing.T) {
	opts := testShardOptions(t)
	dir := opts.Dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	m, err := buildManifest(testNetwork(), testCoreOptions(), &opts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := durable.Replace(manifestPath(dir), append(data, '\n')); err != nil {
		t.Fatal(err)
	}
	const slab = 1
	epoch := 0
	relaunch := func() *SlabResult {
		t.Helper()
		epoch++
		env := []string{EnvDir + "=" + dir, EnvSlab + "=" + strconv.Itoa(slab), EnvEpoch + "=" + strconv.Itoa(epoch)}
		if code := WorkerEnvMain(context.Background(), env); code != ExitOK {
			t.Fatalf("epoch %d: worker exit code %d", epoch, code)
		}
		res, err := ParseSlabResult(mustRead(t, resultPath(dir, slab)))
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		return res
	}
	want := relaunch()
	ckpt := mustRead(t, ckptPath(dir, slab))
	lines, torn := durable.Lines(ckpt)
	if torn || len(lines) < 3 {
		t.Fatalf("finished checkpoint holds %d lines (torn=%v); need a header and two strides", len(lines), torn)
	}
	recLen := len(lines[len(lines)-1]) + 1
	prefix := ckpt[:len(ckpt)-recLen]
	for cut := 0; cut < recLen; cut++ {
		torn := append(append([]byte(nil), prefix...), ckpt[len(prefix):len(prefix)+cut]...)
		padded := append(append([]byte(nil), torn...), make([]byte, recLen-cut)...)
		for _, state := range [][]byte{torn, padded} {
			if err := os.WriteFile(ckptPath(dir, slab), state, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(resultPath(dir, slab)); err != nil {
				t.Fatal(err)
			}
			got := relaunch()
			if numeric.IntVector(got.Best).Key() != numeric.IntVector(want.Best).Key() ||
				math.Float64bits(float64(got.BestValue)) != math.Float64bits(float64(want.BestValue)) ||
				got.Evaluations != want.Evaluations || !got.Resumed {
				t.Errorf("cut %d of %d (%d bytes): result best %v (%v) evals %d resumed %v, uninterrupted %v (%v) evals %d",
					cut, recLen, len(state), got.Best, got.BestValue, got.Evaluations, got.Resumed, want.Best, want.BestValue, want.Evaluations)
			}
		}
	}
}

func TestParseFaults(t *testing.T) {
	got := parseFaults("crash:slab2,hang:slab0, torn:slab1 ,bogus:slab3,crash:notaslab,crash-always:slab4")
	want := map[int]string{2: "crash", 0: "hang", 1: "torn", 4: "crash-always"}
	if len(got) != len(want) {
		t.Fatalf("parseFaults: got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("parseFaults: got %v, want %v", got, want)
		}
	}
	if len(parseFaults("")) != 0 {
		t.Fatal("empty spec should parse to no faults")
	}
}

func TestWorkerMainUsage(t *testing.T) {
	t.Setenv(EnvDir, "")
	t.Setenv(EnvSlab, "")
	if code := WorkerMain(); code != ExitUsage {
		t.Fatalf("missing env: exit %d, want %d", code, ExitUsage)
	}
	t.Setenv(EnvDir, t.TempDir())
	t.Setenv(EnvSlab, "banana")
	if code := WorkerMain(); code != ExitUsage {
		t.Fatalf("bad slab: exit %d, want %d", code, ExitUsage)
	}
}

func TestShardedMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	base := baseline(t)
	opts := testShardOptions(t)
	res, err := Run(testNetwork(), testCoreOptions(), opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertMatchesBaseline(t, res, base)
	if res.Retries != 0 || res.Quarantined != 0 || res.Reassigned != 0 || len(res.Degraded) != 0 {
		t.Fatalf("clean run reported faults: %+v", res)
	}
	if res.Slabs != 3 {
		t.Fatalf("got %d slabs, want 3", res.Slabs)
	}
}

func TestShardedRecoversFromSpool(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	base := baseline(t)
	opts := testShardOptions(t)
	if _, err := Run(testNetwork(), testCoreOptions(), opts); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	// Second run over the same spool must adopt every durable slab
	// result without relaunching a single worker.
	opts.WorkerArgv = []string{"/nonexistent/worker/binary"}
	res, err := Run(testNetwork(), testCoreOptions(), opts)
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	assertMatchesBaseline(t, res, base)
	if res.Recovered != res.Slabs {
		t.Fatalf("recovered %d of %d slabs", res.Recovered, res.Slabs)
	}
}

func TestSpoolRejectsDifferentSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	opts := testShardOptions(t)
	if _, err := Run(testNetwork(), testCoreOptions(), opts); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	copts := testCoreOptions()
	copts.MaxWindow = 5 // a different search box
	_, err := Run(testNetwork(), copts, opts)
	if err == nil || !strings.Contains(err.Error(), "different search") {
		t.Fatalf("reusing the spool for a different search: err = %v", err)
	}
}

func TestRunRejectsUnshardableOptions(t *testing.T) {
	opts := testShardOptions(t)
	copts := testCoreOptions()
	copts.Search = core.PatternSearch
	if _, err := Run(testNetwork(), copts, opts); err == nil {
		t.Error("pattern search accepted")
	}
	copts = testCoreOptions()
	copts.BufferLimits = []int{10, 10, 10, 10, 10}
	if _, err := Run(testNetwork(), copts, opts); err == nil {
		t.Error("BufferLimits accepted")
	}
	copts = testCoreOptions()
	copts.EvalTimeout = time.Second
	if _, err := Run(testNetwork(), copts, opts); err == nil {
		t.Error("EvalTimeout accepted")
	}
	if _, err := Run(testNetwork(), testCoreOptions(), Options{Dir: t.TempDir()}); err == nil {
		t.Error("empty worker argv accepted")
	}
}

// TestShardedExactEngineMatches runs the sharded search with the exact
// evaluator behind slab-bounded convolution oracles (OracleBox): the
// bound must not cost bit-identity with the single-process exact run.
func TestShardedExactEngineMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	copts := testCoreOptions()
	copts.Evaluator = core.EvalExactMVA
	copts.ExactEngine = true
	base, err := core.Dimension(testNetwork(), copts)
	if err != nil {
		t.Fatalf("baseline Dimension: %v", err)
	}
	res, err := Run(testNetwork(), copts, testShardOptions(t))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got, want := res.Windows.Key(), base.Windows.Key(); got != want {
		t.Fatalf("merged windows %s, baseline %s", got, want)
	}
	if got, want := math.Float64bits(res.Metrics.Power), math.Float64bits(base.Metrics.Power); got != want {
		t.Fatalf("merged power not bit-identical: %x vs %x", got, want)
	}
	if got, want := res.Evaluations, base.Search.Evaluations; got != want {
		t.Fatalf("merged evaluations %d, baseline %d", got, want)
	}
}

// TestAcquireLeaseFencesEqualEpoch: a launch may claim a slab only with an
// epoch newer than the holder's. A second claim at the holder's own epoch
// is fenced, and the lease file keeps the first owner.
func TestAcquireLeaseFencesEqualEpoch(t *testing.T) {
	dir, hash := t.TempDir(), Hash([]byte("manifest"))
	if _, err := acquireLease(dir, 0, hash, 3, "first", time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := acquireLease(dir, 0, hash, 3, "second", time.Second); !errors.Is(err, ErrFenced) {
		t.Fatalf("second claim at epoch 3: %v, want ErrFenced", err)
	}
	l, err := readLease(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.Owner != "first" || l.Epoch != 3 {
		t.Errorf("lease held by %q at epoch %d, want \"first\" at 3", l.Owner, l.Epoch)
	}
}
