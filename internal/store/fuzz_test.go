package store

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzSegmentDecode drives the frame walker and the record decoder over
// arbitrary segment bodies. The invariants under fuzzing: scanBody and
// decodeRecord never panic and never over-allocate on hostile length
// prefixes; the reported validLen always lies on a frame boundary within
// the body; re-scanning the intact prefix reproduces exactly the records
// of the first pass (truncate-to-validLen recovery is idempotent); every
// intact record's payload re-encodes to the identical bytes (decode∘encode
// is the identity on valid frames); and firstIndex, the open's read of a
// sealed segment's first frame, agrees with the scan. The seed corpus
// holds well-formed bodies plus each corruption the recovery tests
// construct: torn headers, short payloads, flipped CRC bytes, bad
// versions.
func FuzzSegmentDecode(f *testing.F) {
	frame := func(rec Record) []byte { return appendFrame(nil, appendRecord(nil, &rec)) }
	full := Record{Kind: KindWindow, AppendedAt: 42, Window: Window{
		Window: 7, Start: 4200, End: 4800, StartTime: 84, EndTime: 96,
		Stationary: true, Admitted: true, Decided: true, LossRate: 0.004,
		HasDCL: true, SDCL: true, BoundSeconds: 0.08,
		PMF: []float64{0.9, 0.07, 0.03}, LogLik: -812.5, EMIterations: 23,
		Summary: "w7: sdcl", Transition: "dcl-onset",
	}}
	one := frame(full)
	two := append(append([]byte(nil), one...), frame(Record{
		Kind: KindTransition, AppendedAt: 43, Window: Window{Window: 8, Decided: true},
	})...)
	torn := append(append([]byte(nil), two...), one[:11]...)
	crcFlip := append([]byte(nil), two...)
	crcFlip[len(crcFlip)-2] ^= 0x10
	badVer := append([]byte(nil), one...)
	badVer[frameHeader] = recordVersion + 9
	f.Add([]byte(nil))
	f.Add(one)
	f.Add(two)
	f.Add(torn)
	f.Add(crcFlip)
	f.Add(badVer)
	f.Add(one[:3])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, body []byte) {
		var recs []Record
		sc, err := scanBody(body, func(r Record) error {
			recs = append(recs, r)
			return nil
		})
		if err != nil {
			t.Fatalf("scanBody returned a callback error with a nil-error callback: %v", err)
		}
		if sc.validLen < 0 || sc.validLen > int64(len(body)) {
			t.Fatalf("validLen %d outside body of %d bytes", sc.validLen, len(body))
		}
		if sc.records != len(recs) {
			t.Fatalf("records=%d but callback saw %d", sc.records, len(recs))
		}
		if !sc.torn && sc.validLen != int64(len(body)) {
			t.Fatalf("untorn body with validLen %d != len %d", sc.validLen, len(body))
		}
		// Recovery idempotence: the intact prefix rescans identically.
		var again []Record
		sc2, _ := scanBody(body[:sc.validLen], func(r Record) error {
			again = append(again, r)
			return nil
		})
		if sc2.torn || sc2.records != sc.records || !reflect.DeepEqual(recs, again) {
			t.Fatalf("rescan of intact prefix diverged: %+v vs %+v", sc2, sc)
		}
		idx, ok := firstIndex(bytes.NewReader(append([]byte(segMagic), body...)))
		if ok != (len(recs) > 0) || ok && idx != int64(recs[0].Window.Window) {
			t.Fatalf("firstIndex = %d, %v, but the scan found %d records", idx, ok, len(recs))
		}
		// Round trip: every intact record re-encodes to its own payload.
		for i := range recs {
			re := appendRecord(nil, &recs[i])
			dec, err := decodeRecord(re)
			if err != nil {
				t.Fatalf("re-encoded record %d does not decode: %v", i, err)
			}
			if !reflect.DeepEqual(dec, recs[i]) {
				t.Fatalf("record %d not a fixed point of encode∘decode", i)
			}
		}
	})
}
