package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Segment file layout: an 8-byte magic header followed by frames, each
//
//	u32le payload-length | u32le crc32c(payload) | payload
//
// The CRC is Castagnoli (the polynomial with hardware support on amd64 and
// arm64), computed over the payload only; the length field is validated by
// range and by whether a whole frame fits in the file. Anything that fails
// these checks — a short header, an absurd length, a CRC mismatch, an
// undecodable payload — marks the segment torn at the frame's start:
// recovery keeps every frame before that point and truncates the rest. A
// frame is exactly one record, so "every intact record survives, nothing
// after the first torn byte does" is the whole recovery invariant.
const (
	segMagic    = "DCLWAL1\n"
	frameHeader = 8 // length + crc
	// maxRecordBytes bounds one record frame; real records are a few
	// hundred bytes (the PMF has one entry per delay symbol), so a length
	// beyond this is corruption, not data.
	maxRecordBytes = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends the framed payload to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// segScan is what one pass over a segment body found.
type segScan struct {
	records      int
	first, last  int64 // window index range (valid when records > 0)
	oldest       int64 // append-time range, unix nanos
	newest       int64
	validLen     int64 // bytes of intact frames, counted from the body start
	torn         bool  // a torn or corrupt tail was found past validLen
	reason       string
	transitioned int // KindTransition records among records
}

// scanBody walks the frames of a segment body (the file after the magic
// header), calling fn for each intact record. It stops at the first torn
// frame — everything after an undecodable point is unreliable — and
// reports how far the intact prefix ran. fn may be nil (pure validation);
// a non-nil fn error aborts the scan and is returned as-is.
func scanBody(body []byte, fn func(Record) error) (segScan, error) {
	return scanFrames(bytes.NewReader(body), fn)
}

// scanFrames is scanBody over a reader positioned at the body start. It
// holds one frame at a time, so scanning a segment through a small
// buffered reader costs memory independent of the segment's size. A read
// error other than the end of input is returned as-is.
func scanFrames(r io.Reader, fn func(Record) error) (segScan, error) {
	var sc segScan
	buf := make([]byte, frameHeader, 512) // header, then header + payload
	off := 0
	tear := func(reason string) {
		sc.torn = true
		sc.reason = fmt.Sprintf("%s at byte %d", reason, off+len(segMagic))
	}
	for {
		if _, err := io.ReadFull(r, buf[:frameHeader]); err != nil {
			if err == io.ErrUnexpectedEOF {
				tear("short frame header")
			} else if err != io.EOF {
				return sc, err
			}
			break
		}
		n := int(binary.LittleEndian.Uint32(buf))
		sum := binary.LittleEndian.Uint32(buf[4:])
		if n == 0 || n > maxRecordBytes {
			tear(fmt.Sprintf("implausible frame length %d", n))
			break
		}
		if cap(buf) < frameHeader+n {
			buf = make([]byte, frameHeader+n)
		}
		buf = buf[:frameHeader+n]
		if _, err := io.ReadFull(r, buf[frameHeader:]); err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				return sc, err
			}
			tear("short frame payload")
			break
		}
		payload := buf[frameHeader:]
		if crc32.Checksum(payload, crcTable) != sum {
			tear("crc mismatch")
			break
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			tear(err.Error())
			break
		}
		idx := int64(rec.Window.Window)
		if sc.records == 0 {
			sc.first, sc.last = idx, idx
			sc.oldest, sc.newest = rec.AppendedAt, rec.AppendedAt
		} else {
			if idx < sc.first {
				sc.first = idx
			}
			if idx > sc.last {
				sc.last = idx
			}
			if rec.AppendedAt < sc.oldest {
				sc.oldest = rec.AppendedAt
			}
			if rec.AppendedAt > sc.newest {
				sc.newest = rec.AppendedAt
			}
		}
		if rec.Kind == KindTransition {
			sc.transitioned++
		}
		sc.records++
		off += frameHeader + n
		sc.validLen = int64(off)
		if fn != nil {
			if err := fn(rec); err != nil {
				return sc, err
			}
		}
	}
	return sc, nil
}

// checkMagic validates a segment file's header, tolerating an empty file
// (a crash between create and first append).
func checkMagic(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	if len(b) < len(segMagic) || string(b[:len(segMagic)]) != segMagic {
		return fmt.Errorf("store: bad segment magic")
	}
	return nil
}

// checkSegment scans a raw segment file. It returns the summary of the
// intact records, the length of the intact prefix including the magic
// header, and the torn tail past that prefix, if any.
func checkSegment(name string, raw []byte) (sc segScan, size int64, torn *RecoveryEvent) {
	if checkMagic(raw) != nil {
		// An unrecognizable segment is all tail: keep nothing of it.
		return sc, 0, &RecoveryEvent{Segment: name, DroppedBytes: int64(len(raw)), Reason: "bad segment magic"}
	}
	sc, _ = scanBody(segBody(raw), nil)
	if len(raw) > 0 {
		size = int64(len(segMagic)) + sc.validLen
	}
	if sc.torn {
		torn = &RecoveryEvent{Segment: name, ValidBytes: size, DroppedBytes: int64(len(raw)) - size, Reason: sc.reason}
	}
	return sc, size, torn
}

// segBody returns the frame region of a raw segment file.
func segBody(b []byte) []byte {
	if len(b) < len(segMagic) {
		return nil
	}
	return b[len(segMagic):]
}

// firstIndex reads a segment's magic header and first frame through r and
// returns that record's window index. ok is false when the file is shorter
// than that or the frame fails any check of scanBody.
func firstIndex(r io.ReaderAt) (idx int64, ok bool) {
	head := len(segMagic) + frameHeader
	buf := make([]byte, head)
	if got, _ := r.ReadAt(buf, 0); got < head || checkMagic(buf) != nil {
		return 0, false
	}
	n := binary.LittleEndian.Uint32(buf[len(segMagic):])
	if n == 0 || n > maxRecordBytes {
		return 0, false
	}
	buf = append(buf, make([]byte, n)...)
	if got, _ := r.ReadAt(buf[head:], int64(head)); got < int(n) {
		return 0, false
	}
	sc, _ := scanBody(segBody(buf), nil)
	return sc.first, sc.records == 1
}
