package store

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// testWindow fabricates a window record with every field populated, so
// round-trip tests exercise the whole encoding.
func testWindow(i int) Window {
	return Window{
		Window:       i,
		Start:        i * 600,
		End:          i*600 + 600,
		StartTime:    float64(i) * 12.0,
		EndTime:      float64(i)*12.0 + 12.0,
		Partial:      i%7 == 0,
		Stationary:   i%3 != 0,
		Admitted:     true,
		Decided:      i%3 != 0,
		LossRate:     0.004 + float64(i)*1e-5,
		HasDCL:       i%2 == 0,
		SDCL:         i%4 == 0,
		WDCL:         i%2 == 0 && i%4 != 0,
		BoundSeconds: 0.081,
		PMF:          []float64{0.91, 0.05, 0.03, 0.01, 1e-9 * float64(i)},
		LogLik:       -1234.5 - float64(i),
		EMIterations: 17 + i%5,
		Summary:      fmt.Sprintf("window %d: dcl", i),
		Transition:   "",
		Error:        "",
	}
}

func testRecord(i int) Record {
	rec := Record{Kind: KindWindow, AppendedAt: int64(1e18) + int64(i), Window: testWindow(i)}
	if i%10 == 5 {
		rec.Window.Transition = "dcl-onset"
	}
	return rec
}

func openTestStore(t *testing.T, dir string, mut func(*Options)) *Store {
	t.Helper()
	opts := Options{Dir: dir, Fsync: FsyncNone}
	if mut != nil {
		mut(&opts)
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func collect(t *testing.T, l *Log, since int64) []Record {
	t.Helper()
	var recs []Record
	if err := l.Scan(since, func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return recs
}

func TestRecordRoundTrip(t *testing.T) {
	for i := 0; i < 50; i++ {
		rec := testRecord(i)
		if i%9 == 0 {
			rec.Window.Error = "identify: deadline exceeded"
			rec.Window.PMF = nil
		}
		payload := appendRecord(nil, &rec)
		got, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("record %d: round-trip mismatch:\n got %+v\nwant %+v", i, got, rec)
		}
	}
}

func TestRecordRoundTripNaNAndInf(t *testing.T) {
	rec := testRecord(0)
	rec.Window.LogLik = math.Inf(-1)
	rec.Window.PMF = []float64{math.NaN(), math.Inf(1), math.Copysign(0, -1)}
	got, err := decodeRecord(appendRecord(nil, &rec))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !math.IsInf(got.Window.LogLik, -1) || !math.IsNaN(got.Window.PMF[0]) ||
		!math.IsInf(got.Window.PMF[1], 1) || math.Signbit(got.Window.PMF[2]) != true {
		t.Fatalf("float bits not preserved: %+v", got.Window)
	}
}

func TestDecodeRejectsCorruptPayloads(t *testing.T) {
	rec := testRecord(3)
	payload := appendRecord(nil, &rec)
	if _, err := decodeRecord(payload[:len(payload)-1]); err == nil {
		t.Fatal("truncated payload decoded")
	}
	if _, err := decodeRecord(append(append([]byte(nil), payload...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	bad := append([]byte(nil), payload...)
	bad[0] = recordVersion + 1
	if _, err := decodeRecord(bad); err == nil {
		t.Fatal("future version accepted")
	}
	bad = append([]byte(nil), payload...)
	bad[1] = 99
	if _, err := decodeRecord(bad); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestAppendScanRoundTrip(t *testing.T) {
	s := openTestStore(t, t.TempDir(), nil)
	l, err := s.Log("alice:bob")
	if err != nil {
		t.Fatalf("Log: %v", err)
	}
	const n = 40
	want := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		rec := testRecord(i)
		if err := l.Append(&rec); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		want = append(want, rec)
	}
	got := collect(t, l, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan mismatch: got %d records, want %d", len(got), len(want))
	}
	// Offset addressing: since=25 returns exactly windows 25..39.
	tail := collect(t, l, 25)
	if len(tail) != n-25 || tail[0].Window.Window != 25 {
		t.Fatalf("since=25: got %d records starting at %d", len(tail), tail[0].Window.Window)
	}
	if l.NextIndex() != n {
		t.Fatalf("NextIndex = %d, want %d", l.NextIndex(), n)
	}
	// ErrStop aborts cleanly.
	seen := 0
	if err := l.Scan(0, func(Record) error {
		seen++
		if seen == 3 {
			return ErrStop
		}
		return nil
	}); err != nil {
		t.Fatalf("Scan with ErrStop: %v", err)
	}
	if seen != 3 {
		t.Fatalf("ErrStop did not stop scan: saw %d", seen)
	}
}

func TestReopenResumesCounterAndRecords(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, nil)
	l, _ := s.Log("p")
	for i := 0; i < 10; i++ {
		rec := testRecord(i)
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openTestStore(t, dir, nil)
	l2, err := s2.Log("p")
	if err != nil {
		t.Fatalf("reopen Log: %v", err)
	}
	if l2.NextIndex() != 10 {
		t.Fatalf("NextIndex after reopen = %d, want 10", l2.NextIndex())
	}
	if evs := l2.Recoveries(); len(evs) != 0 {
		t.Fatalf("clean reopen reported recoveries: %v", evs)
	}
	rec := testRecord(10)
	if err := l2.Append(&rec); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l2, 0)
	if len(got) != 11 || got[10].Window.Window != 10 {
		t.Fatalf("resumed log: %d records, last window %d", len(got), got[len(got)-1].Window.Window)
	}
}

// lastSegment returns the path of the newest .wal file of a log dir.
func lastSegment(t *testing.T, storeDir, id string) string {
	t.Helper()
	dir := filepath.Join(storeDir, escapePath(id))
	names, err := segmentNames(osFS{}, dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return filepath.Join(dir, names[len(names)-1])
}

// TestRecoveryTruncatedTail kills the writer (no Close, so no final sync)
// and rips bytes off the active segment, simulating a crash
// mid-append: reopening must keep every whole record, report exactly one
// truncation event, and resume the counter from the surviving records.
func TestRecoveryTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, nil)
	l, _ := s.Log("p")
	for i := 0; i < 20; i++ {
		rec := testRecord(i)
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon the store without Close.
	seg := lastSegment(t, dir, "p")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, nil)
	l2, err := s2.Log("p")
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	evs := l2.Recoveries()
	if len(evs) != 1 {
		t.Fatalf("recoveries = %v, want exactly 1", evs)
	}
	got := collect(t, l2, 0)
	if len(got) != 19 {
		t.Fatalf("after torn-tail recovery: %d records, want 19", len(got))
	}
	for i, r := range got {
		if !reflect.DeepEqual(r, testRecord(i)) {
			t.Fatalf("record %d corrupted by recovery", i)
		}
	}
	if l2.NextIndex() != 19 {
		t.Fatalf("NextIndex = %d, want 19", l2.NextIndex())
	}
	// The torn bytes must be gone from disk and the log appendable again.
	rec := testRecord(19)
	if err := l2.Append(&rec); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if got := collect(t, l2, 0); len(got) != 20 {
		t.Fatalf("after post-recovery append: %d records", len(got))
	}
	if evs, err := l2.Verify(); err != nil || len(evs) != 0 {
		t.Fatalf("Verify after recovery: %v, %v", evs, err)
	}
}

// TestRecoveryBitFlip corrupts a byte inside the last record's payload:
// the CRC must catch it, recovery drops only that record, and exactly one
// event is reported.
func TestRecoveryBitFlip(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, nil)
	l, _ := s.Log("p")
	for i := 0; i < 12; i++ {
		rec := testRecord(i)
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	seg := lastSegment(t, dir, "p")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x40
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, nil)
	l2, err := s2.Log("p")
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	if evs := l2.Recoveries(); len(evs) != 1 {
		t.Fatalf("recoveries = %v, want exactly 1", evs)
	}
	got := collect(t, l2, 0)
	if len(got) != 11 {
		t.Fatalf("after bit-flip recovery: %d records, want 11", len(got))
	}
	for i, r := range got {
		if !reflect.DeepEqual(r, testRecord(i)) {
			t.Fatalf("record %d corrupted by recovery", i)
		}
	}
	if s2.Metrics().Recoveries.Load() != 1 {
		t.Fatalf("Recoveries metric = %d", s2.Metrics().Recoveries.Load())
	}
}

func TestSegmentRollAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, func(o *Options) { o.SegmentBytes = 2048 })
	l, _ := s.Log("p")
	const n = 100
	want := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		rec := testRecord(i)
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected several segments at 2KiB roll, got %d", st.Segments)
	}
	if st.Records != n || st.NextIndex != n || st.FirstIndex != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got := collect(t, l, 0); len(got) != n {
		t.Fatalf("scan across segments: %d records", len(got))
	}
	// since= beyond the first segment must skip it entirely yet miss nothing.
	if got := collect(t, l, 60); len(got) != 40 || got[0].Window.Window != 60 {
		t.Fatalf("since=60 across segments: %d records", len(got))
	}
	s.Close()

	// Reopen with a different roll size: open reads each sealed segment's
	// first frame only, yet a full scan returns every record unchanged.
	s2 := openTestStore(t, dir, func(o *Options) { o.SegmentBytes = 8 * 1024 })
	l2, err := s2.Log("p")
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l2, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("scan after reopen: got %d records, want %d", len(got), len(want))
	}
	if got := collect(t, l2, 60); len(got) != 40 || got[0].Window.Window != 60 {
		t.Fatalf("since=60 after reopen: %d records", len(got))
	}
	if l2.NextIndex() != n {
		t.Fatalf("NextIndex after reopen = %d", l2.NextIndex())
	}
	if evs, err := l2.Verify(); err != nil || len(evs) != 0 {
		t.Fatalf("Verify after reopen: %v, %v", evs, err)
	}
}

func TestRetentionByBytes(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, func(o *Options) {
		o.SegmentBytes = 2048
		o.RetainBytes = 6 * 1024
	})
	l, _ := s.Log("p")
	const n = 300
	for i := 0; i < n; i++ {
		rec := testRecord(i)
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Bytes > 6*1024+2048 { // retention runs at roll; one active segment of slack
		t.Fatalf("retention did not bound size: %d bytes", st.Bytes)
	}
	if st.FirstIndex == 0 {
		t.Fatal("retention deleted nothing")
	}
	got := collect(t, l, 0)
	if len(got) == 0 || len(got) == n {
		t.Fatalf("scan after retention: %d records", len(got))
	}
	// What survives is the contiguous newest suffix, ending at n-1.
	for i, r := range got {
		if r.Window.Window != int(st.FirstIndex)+i {
			t.Fatalf("gap after retention at %d: window %d", i, r.Window.Window)
		}
	}
	if got[len(got)-1].Window.Window != n-1 {
		t.Fatalf("newest record lost: %d", got[len(got)-1].Window.Window)
	}
}

func TestRetentionByAge(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	s := openTestStore(t, dir, func(o *Options) {
		o.SegmentBytes = 2048
		o.RetainAge = time.Hour
		o.Now = clock
	})
	l, _ := s.Log("p")
	for i := 0; i < 60; i++ {
		rec := testRecord(i)
		rec.AppendedAt = 0 // let the store clock stamp it
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Stats()
	// Jump the clock past the retention age and force a roll.
	now = now.Add(2 * time.Hour)
	for i := 60; i < 120; i++ {
		rec := testRecord(i)
		rec.AppendedAt = 0
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.FirstIndex == 0 {
		t.Fatalf("age retention kept everything: before=%+v after=%+v", before, st)
	}
	if got := collect(t, l, 0); got[len(got)-1].Window.Window != 119 {
		t.Fatal("age retention lost the newest records")
	}
}

// TestConcurrentAppendScan runs one writer against many scanners; under
// -race this is the one-writer/many-readers contract check. Scanners must
// always see a prefix-consistent set: windows 0..k for some k, no holes,
// no torn records.
func TestConcurrentAppendScan(t *testing.T) {
	s := openTestStore(t, t.TempDir(), func(o *Options) { o.SegmentBytes = 4096 })
	l, _ := s.Log("p")
	const n = 400
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				prev := int64(-1)
				err := l.Scan(0, func(r Record) error {
					if int64(r.Window.Window) != prev+1 {
						return fmt.Errorf("hole: %d after %d", r.Window.Window, prev)
					}
					prev = int64(r.Window.Window)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		rec := testRecord(i)
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := collect(t, l, 0); len(got) != n {
		t.Fatalf("final scan: %d records", len(got))
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNone} {
		t.Run(pol.String(), func(t *testing.T) {
			s := openTestStore(t, t.TempDir(), func(o *Options) {
				o.Fsync = pol
				o.FsyncEvery = 5 * time.Millisecond
			})
			l, _ := s.Log("p")
			for i := 0; i < 10; i++ {
				rec := testRecord(i)
				if err := l.Append(&rec); err != nil {
					t.Fatal(err)
				}
			}
			if pol == FsyncAlways && s.Metrics().Fsyncs.Load() == 0 {
				t.Fatal("FsyncAlways did not fsync")
			}
			if pol == FsyncInterval {
				deadline := time.Now().Add(2 * time.Second)
				for s.Metrics().Fsyncs.Load() == 0 && time.Now().Before(deadline) {
					time.Sleep(5 * time.Millisecond)
				}
				if s.Metrics().Fsyncs.Load() == 0 {
					t.Fatal("interval flusher never fsynced")
				}
			}
			if got := collect(t, l, 0); len(got) != 10 {
				t.Fatalf("%d records", len(got))
			}
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	cases := map[string]FsyncPolicy{
		"always": FsyncAlways, "interval": FsyncInterval,
		"none": FsyncNone, "": FsyncInterval, " Always ": FsyncAlways,
	}
	for in, want := range cases {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestReadOnlyStore(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, nil)
	l, _ := s.Log("p")
	for i := 0; i < 5; i++ {
		rec := testRecord(i)
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the tail, then open read-only: the tear is reported, NOT fixed.
	seg := lastSegment(t, dir, "p")
	fi, _ := os.Stat(seg)
	os.Truncate(seg, fi.Size()-3)
	sizeBefore := fi.Size() - 3

	ro := openTestStore(t, dir, func(o *Options) { o.ReadOnly = true })
	rl, err := ro.Log("p")
	if err != nil {
		t.Fatalf("read-only open: %v", err)
	}
	if evs := rl.Recoveries(); len(evs) != 1 {
		t.Fatalf("read-only recoveries = %v", evs)
	}
	if fi2, _ := os.Stat(seg); fi2.Size() != sizeBefore {
		t.Fatal("read-only open mutated the segment")
	}
	if got := collect(t, rl, 0); len(got) != 4 {
		t.Fatalf("read-only scan: %d records, want 4", len(got))
	}
	rec := testRecord(9)
	if err := rl.Append(&rec); err != ErrReadOnly {
		t.Fatalf("read-only Append = %v, want ErrReadOnly", err)
	}
	// A path the store does not hold is an error, and no directory for it
	// appears.
	if _, err := ro.Log("no-such-path"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("read-only Log of a missing path = %v, want os.ErrNotExist", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "no-such-path")); !os.IsNotExist(err) {
		t.Fatalf("read-only Log created a directory: %v", err)
	}
}

func TestStorePaths(t *testing.T) {
	s := openTestStore(t, t.TempDir(), nil)
	ids := []string{"a:b", "10.0.0.1->10.0.0.2", "..sneaky", "pct%path"}
	for _, id := range ids {
		l, err := s.Log(id)
		if err != nil {
			t.Fatalf("Log(%q): %v", id, err)
		}
		rec := testRecord(0)
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) {
		t.Fatalf("Paths = %v", got)
	}
	for _, id := range ids {
		found := false
		for _, g := range got {
			if g == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("path %q not round-tripped through escaping; got %v", id, got)
		}
	}
}

func TestEscapePathSafety(t *testing.T) {
	for _, id := range []string{"..", "../../etc", ".hidden", "a/b", "x%2e%2e"} {
		esc := escapePath(id)
		if esc == "" || esc[0] == '.' {
			t.Errorf("escapePath(%q) = %q begins with a dot", id, esc)
		}
		if filepath.Clean(filepath.Join("/root", esc)) != "/root/"+esc {
			t.Errorf("escapePath(%q) = %q escapes its directory", id, esc)
		}
		if unescapePath(esc) != id {
			t.Errorf("unescapePath(escapePath(%q)) = %q", id, unescapePath(esc))
		}
	}
	if escapePath("a") == escapePath("%61") {
		t.Error("distinct ids collide after escaping")
	}
}
