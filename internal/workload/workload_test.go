package workload

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestComputeStatsBasics(t *testing.T) {
	w := &Workload{
		Name:     "tiny",
		NumFiles: 4,
		Tasks: []Task{
			{ID: 0, Files: []FileID{0, 1}},
			{ID: 1, Files: []FileID{1, 2, 3}},
			{ID: 2, Files: []FileID{1}},
		},
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(w)
	if s.Tasks != 3 || s.TotalFiles != 4 || s.MinFilesPerTask != 1 || s.MaxFilesPerTask != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.TotalReferences != 6 || s.AvgFilesPerTask != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	// Task 1 shares file 2 with task 0: a file seen in an earlier task is
	// not a duplicate within this one.
	good := func() *Workload {
		return &Workload{
			Name:     "w",
			NumFiles: 3,
			Tasks:    []Task{{ID: 0, Files: []FileID{0, 2}}, {ID: 1, Files: []FileID{2, 1}}},
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("Validate rejected a sound workload: %v", err)
	}
	cases := map[string]struct {
		corrupt func(*Workload)
		want    string
	}{
		"zero files":         {func(w *Workload) { w.NumFiles = 0 }, `workload "w": NumFiles = 0`},
		"wrong task id":      {func(w *Workload) { w.Tasks[0].ID = 5 }, `workload "w": task 0 has id 5`},
		"empty file list":    {func(w *Workload) { w.Tasks[0].Files = nil }, `workload "w": task 0 has no files`},
		"file out of range":  {func(w *Workload) { w.Tasks[0].Files = []FileID{7} }, `workload "w": task 0 references file 7 outside [0,3)`},
		"negative file":      {func(w *Workload) { w.Tasks[0].Files = []FileID{-1} }, `workload "w": task 0 references file -1 outside [0,3)`},
		"duplicate file":     {func(w *Workload) { w.Tasks[0].Files = []FileID{1, 1} }, `workload "w": task 0 references file 1 twice`},
		"duplicate, later":   {func(w *Workload) { w.Tasks[1].Files = []FileID{2, 0, 2} }, `workload "w": task 1 references file 2 twice`},
		"range before twice": {func(w *Workload) { w.Tasks[1].Files = []FileID{1, 9, 1} }, `workload "w": task 1 references file 9 outside [0,3)`},
	}
	for name, tc := range cases {
		w := good()
		tc.corrupt(w)
		if err := w.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Validate = %v, want %q", name, err, tc.want)
		}
	}
}

// TestValidateAllocations: the duplicate check is one array over NumFiles,
// not a map per task — Validate runs on every submit and once per resident
// job in every recovery.
func TestValidateAllocations(t *testing.T) {
	cfg := CoaddSmallConfig(DefaultCoaddSeed)
	cfg.Tasks = 600
	w, err := GenerateCoadd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if err := w.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("Validate of a %d-task workload allocates %.0f times, want at most 1", len(w.Tasks), allocs)
	}
}

func TestReferenceCDFMonotoneAndAnchored(t *testing.T) {
	w := &Workload{
		Name:     "cdf",
		NumFiles: 3,
		Tasks: []Task{
			{ID: 0, Files: []FileID{0, 1}},
			{ID: 1, Files: []FileID{0}},
			{ID: 2, Files: []FileID{0}},
		},
	}
	cdf := ReferenceCDF(w)
	// refs: file0=3, file1=1; points: (1, 100%), (3, 50%).
	if len(cdf) != 2 {
		t.Fatalf("cdf = %+v", cdf)
	}
	if cdf[0].MinRefs != 1 || cdf[0].Percent != 100 {
		t.Fatalf("cdf[0] = %+v", cdf[0])
	}
	if cdf[1].MinRefs != 3 || cdf[1].Percent != 50 {
		t.Fatalf("cdf[1] = %+v", cdf[1])
	}
	if got := PercentWithAtLeast(w, 2); got != 50 {
		t.Fatalf("PercentWithAtLeast(2) = %v, want 50", got)
	}
	if got := PercentWithAtLeast(w, 4); got != 0 {
		t.Fatalf("PercentWithAtLeast(4) = %v, want 0", got)
	}
}

// TestCoaddMatchesTable2 pins the canonical trace to the paper's Table 2 /
// Figure 3 characteristics, within the tolerance a synthetic regeneration
// can promise: the trace is regenerated from the paper's statistics, not
// read from the original logs.
func TestCoaddMatchesTable2(t *testing.T) {
	w, err := GenerateCoadd(CoaddSmallConfig(DefaultCoaddSeed))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(w)
	if s.Tasks != 6000 {
		t.Fatalf("tasks = %d", s.Tasks)
	}
	if s.TotalFiles < 51000 || s.TotalFiles > 56000 {
		t.Fatalf("total files = %d, want ~53390", s.TotalFiles)
	}
	if s.AvgFilesPerTask < 74 || s.AvgFilesPerTask > 83 {
		t.Fatalf("avg files/task = %v, want ~78.4", s.AvgFilesPerTask)
	}
	if s.MinFilesPerTask < 10 || s.MinFilesPerTask > 50 {
		t.Fatalf("min files/task = %d, want ~36", s.MinFilesPerTask)
	}
	if s.MaxFilesPerTask < 95 || s.MaxFilesPerTask > 160 {
		t.Fatalf("max files/task = %d, want ~101", s.MaxFilesPerTask)
	}
	pct := PercentWithAtLeast(w, 6)
	if pct < 78 || pct > 92 {
		t.Fatalf("%%files with >=6 refs = %v, want ~85", pct)
	}
}

func TestCoaddFullScaleMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale trace generation in -short mode")
	}
	w, err := GenerateCoadd(CoaddFullConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(w)
	if s.Tasks != 44000 {
		t.Fatalf("tasks = %d", s.Tasks)
	}
	if s.TotalFiles < 560000 || s.TotalFiles > 615000 {
		t.Fatalf("total files = %d, want ~588900", s.TotalFiles)
	}
	if s.AvgFilesPerTask < 117 || s.AvgFilesPerTask > 131 {
		t.Fatalf("avg files/task = %v, want ~124", s.AvgFilesPerTask)
	}
	pct := PercentWithAtLeast(w, 6)
	if pct < 83 || pct > 96 {
		t.Fatalf("%%files with >=6 refs = %v, want ~90", pct)
	}
}

func TestCoaddDeterministic(t *testing.T) {
	cfg := CoaddSmallConfig(7)
	cfg.Tasks = 500
	a, err := GenerateCoadd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCoadd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumFiles != b.NumFiles || len(a.Tasks) != len(b.Tasks) {
		t.Fatal("shape differs between identical generations")
	}
	for i := range a.Tasks {
		af, bf := a.Tasks[i].Files, b.Tasks[i].Files
		if len(af) != len(bf) {
			t.Fatalf("task %d file counts differ", i)
		}
		for j := range af {
			if af[j] != bf[j] {
				t.Fatalf("task %d file %d differs", i, j)
			}
		}
	}
}

// TestCoaddSpatialLocality verifies the structural property the schedulers
// exploit: adjacent tasks share most inputs, distant tasks share none.
func TestCoaddSpatialLocality(t *testing.T) {
	cfg := CoaddSmallConfig(DefaultCoaddSeed)
	cfg.Tasks = 2000
	w, err := GenerateCoadd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	overlap := func(a, b Task) int {
		set := make(map[FileID]struct{}, len(a.Files))
		for _, f := range a.Files {
			set[f] = struct{}{}
		}
		n := 0
		for _, f := range b.Files {
			if _, ok := set[f]; ok {
				n++
			}
		}
		return n
	}
	var nearTotal, nearShared, farShared int
	for i := 100; i < 1000; i += 50 {
		nearTotal += len(w.Tasks[i].Files)
		nearShared += overlap(w.Tasks[i], w.Tasks[i+1])
		farShared += overlap(w.Tasks[i], w.Tasks[i+900])
	}
	if float64(nearShared) < 0.5*float64(nearTotal) {
		t.Fatalf("adjacent tasks share %d of %d files, want > 50%%", nearShared, nearTotal)
	}
	if farShared != 0 {
		t.Fatalf("tasks 900 strides apart share %d files, want 0", farShared)
	}
}

func TestCoaddValidateRejects(t *testing.T) {
	bad := []func(*CoaddConfig){
		func(c *CoaddConfig) { c.Tasks = 0 },
		func(c *CoaddConfig) { c.Runs = 0 },
		func(c *CoaddConfig) { c.TaskStride = 0 },
		func(c *CoaddConfig) { c.MinWindow = 0 },
		func(c *CoaddConfig) { c.MaxWindow = c.MinWindow - 1 },
		func(c *CoaddConfig) { c.Coverage = 0 },
		func(c *CoaddConfig) { c.Coverage = 1.5 },
		func(c *CoaddConfig) { c.CoverSegment = 0 },
		func(c *CoaddConfig) { c.DropRange = [2]float64{0.5, 0.2} },
		func(c *CoaddConfig) { c.DropRange = [2]float64{-0.1, 0.2} },
	}
	for i, corrupt := range bad {
		cfg := CoaddSmallConfig(1)
		corrupt(&cfg)
		if _, err := GenerateCoadd(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestZipfGenerator(t *testing.T) {
	cfg := ZipfConfig{Seed: 1, Tasks: 500, Files: 2000, MinFiles: 10, MaxFiles: 30, S: 1.5}
	w, err := GenerateZipf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(w)
	if s.MinFilesPerTask < 10 || s.MaxFilesPerTask > 30 {
		t.Fatalf("files/task range [%d,%d] outside config", s.MinFilesPerTask, s.MaxFilesPerTask)
	}
	// Zipf: the most popular file must be referenced far more than average.
	refs := make(map[FileID]int)
	for _, task := range w.Tasks {
		for _, f := range task.Files {
			refs[f]++
		}
	}
	max := 0
	for _, r := range refs {
		if r > max {
			max = r
		}
	}
	if float64(max) < 3*s.AvgRefsPerFile {
		t.Fatalf("max refs %d not skewed vs avg %v", max, s.AvgRefsPerFile)
	}
}

func TestGeometricGenerator(t *testing.T) {
	cfg := GeometricConfig{Seed: 1, Tasks: 400, Datasets: 10, FilesPerSet: 20, PrivateFiles: 2, P: 0.4}
	w, err := GenerateGeometric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every task: one full dataset + its private files.
	for _, task := range w.Tasks {
		if len(task.Files) != 22 {
			t.Fatalf("task %d has %d files, want 22", task.ID, len(task.Files))
		}
	}
	// Dataset 0 must be the most popular (geometric decay).
	setRefs := make([]int, cfg.Datasets)
	for _, task := range w.Tasks {
		setRefs[int(task.Files[0])/cfg.FilesPerSet]++
	}
	for d := 1; d < cfg.Datasets; d++ {
		if setRefs[d] > setRefs[0] {
			t.Fatalf("dataset %d more popular than dataset 0: %v", d, setRefs)
		}
	}
}

func TestUniformGenerator(t *testing.T) {
	cfg := UniformConfig{Seed: 1, Tasks: 300, Files: 1000, MinFiles: 5, MaxFiles: 5}
	w, err := GenerateUniform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, task := range w.Tasks {
		if len(task.Files) != 5 {
			t.Fatalf("task %d has %d files, want exactly 5", task.ID, len(task.Files))
		}
	}
}

func TestGeneratorConfigValidation(t *testing.T) {
	if _, err := GenerateZipf(ZipfConfig{Tasks: 1, Files: 10, MinFiles: 5, MaxFiles: 3, S: 2}); err == nil {
		t.Error("zipf accepted Max < Min")
	}
	if _, err := GenerateZipf(ZipfConfig{Tasks: 1, Files: 10, MinFiles: 1, MaxFiles: 3, S: 1}); err == nil {
		t.Error("zipf accepted S <= 1")
	}
	if _, err := GenerateGeometric(GeometricConfig{Tasks: 1, Datasets: 1, FilesPerSet: 1, P: 1.5}); err == nil {
		t.Error("geometric accepted P > 1")
	}
	if _, err := GenerateUniform(UniformConfig{Tasks: 1, Files: 2, MinFiles: 1, MaxFiles: 3}); err == nil {
		t.Error("uniform accepted MaxFiles > Files")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	cfg := CoaddSmallConfig(5)
	cfg.Tasks = 200
	w, err := GenerateCoadd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != w.Name || got.NumFiles != w.NumFiles || len(got.Tasks) != len(w.Tasks) {
		t.Fatalf("round trip changed shape: %+v", got)
	}
	for i := range w.Tasks {
		if len(got.Tasks[i].Files) != len(w.Tasks[i].Files) {
			t.Fatalf("task %d files differ after round trip", i)
		}
	}
}

func TestReadRejectsInvalidTrace(t *testing.T) {
	if _, err := Read(bytes.NewBufferString(`{"name":"x","numFiles":0,"tasks":[]}`)); err == nil {
		t.Fatal("accepted trace with zero files")
	}
	if _, err := Read(bytes.NewBufferString(`not json`)); err == nil {
		t.Fatal("accepted malformed JSON")
	}
}

// Property: every generated coadd workload is valid and its reference CDF
// is monotone non-increasing in percent as MinRefs grows.
func TestCoaddPropertyValidAndMonotone(t *testing.T) {
	f := func(seed int64, tasks uint16) bool {
		cfg := CoaddSmallConfig(seed)
		cfg.Tasks = 50 + int(tasks)%500
		w, err := GenerateCoadd(cfg)
		if err != nil {
			return false
		}
		if err := w.Validate(); err != nil {
			return false
		}
		cdf := ReferenceCDF(w)
		for i := 1; i < len(cdf); i++ {
			if cdf[i].MinRefs <= cdf[i-1].MinRefs || cdf[i].Percent > cdf[i-1].Percent {
				return false
			}
		}
		return len(cdf) > 0 && cdf[0].Percent == 100
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestGeometricHelper(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const mean = 50.0
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := geometric(rng, mean)
		if v < 0 {
			t.Fatalf("negative geometric draw %d", v)
		}
		sum += float64(v)
	}
	got := sum / n
	if got < mean*0.9 || got > mean*1.1 {
		t.Fatalf("geometric mean = %v, want ~%v", got, mean)
	}
}

// TestNearestCovered: a task whose window covers no image is anchored to
// the covered image nearest its center, the earlier one on a tie, with the
// center clamped into the run.
func TestNearestCovered(t *testing.T) {
	run := &coaddRun{
		covered: []bool{false, true, false, false, true, false},
		fileIDs: []FileID{-1, 10, -1, -1, 11, -1},
	}
	for from, want := range map[int]FileID{-3: 10, 0: 10, 2: 10, 3: 11, 5: 11, 9: 11} {
		if got := nearestCovered(run, from); got != want {
			t.Errorf("nearestCovered(%d) = %d, want %d", from, got, want)
		}
	}
}
