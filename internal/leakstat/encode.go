package leakstat

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Binary accumulator serialization. Welford state is pure float64
// bookkeeping, so the wire format carries the exact IEEE-754 bit patterns
// (math.Float64bits, little endian): a Vec that round-trips through
// MarshalBinary/UnmarshalBinary is indistinguishable from the original in
// every subsequent Merge, which is what lets a shard computed on a remote
// worker fold into the coordinator's reduction bit-identically to one
// computed in-process. A CRC-32 trailer makes torn or corrupted files and
// payloads detectable, so a durable job store can treat a bad shard file as
// "not computed yet" instead of folding garbage into a verdict.

// shardAccumMagic identifies (and versions) the ShardAccum wire format;
// shardAccumMagic2 marks shard accumulators whose vectors carry third/fourth
// moments (second-order assessments). First-order accumulators keep the
// original magic and byte layout, so every stored LSA1 fact replays
// unchanged.
const (
	shardAccumMagic  = "LSA1"
	shardAccumMagic2 = "LSA2"
)

// vecMomentsFlag is set on the length word of a serialized Vec that carries
// M3/M4 arrays. Sample counts are far below 2^63, so the bit is free; a
// first-order Vec encodes with the flag clear, bit-identical to the
// historical format.
const vecMomentsFlag = uint64(1) << 63

// MarshalBinary encodes the accumulator as (n, len, Mean bits…, M2 bits…),
// with M3/M4 bits appended (and the length word flagged) for
// moment-tracking accumulators.
func (v *Vec) MarshalBinary() ([]byte, error) {
	return v.appendBinary(make([]byte, 0, v.binarySize())), nil
}

// binarySize is the length of the accumulator's encoding: the two header
// words plus two or four moment arrays.
func (v *Vec) binarySize() int {
	return 16 + 8*len(v.Mean)*2*v.Order()
}

func (v *Vec) appendBinary(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, v.n)
	ln := uint64(len(v.Mean))
	if v.M3 != nil {
		ln |= vecMomentsFlag
	}
	b = binary.LittleEndian.AppendUint64(b, ln)
	for _, arr := range [][]float64{v.Mean, v.M2, v.M3, v.M4} {
		for _, x := range arr {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	return b
}

// UnmarshalBinary decodes a MarshalBinary encoding, replacing v's state.
func (v *Vec) UnmarshalBinary(data []byte) error {
	rest, err := v.consumeBinary(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("leakstat: %d trailing bytes after accumulator", len(rest))
	}
	return nil
}

func (v *Vec) consumeBinary(b []byte) ([]byte, error) {
	if len(b) < 16 {
		return nil, fmt.Errorf("leakstat: accumulator header truncated (%d bytes)", len(b))
	}
	n := binary.LittleEndian.Uint64(b)
	ln := binary.LittleEndian.Uint64(b[8:])
	moments := ln&vecMomentsFlag != 0
	ln &^= vecMomentsFlag
	b = b[16:]
	arrays := 2
	if moments {
		arrays = 4
	}
	if ln > uint64(len(b)/(8*arrays)) {
		return nil, fmt.Errorf("leakstat: accumulator of %d samples truncated (%d payload bytes)", ln, len(b))
	}
	v.n = n
	v.inv = 0
	if n > 0 {
		v.inv = 1 / float64(n)
	}
	v.Mean = make([]float64, ln)
	v.M2 = make([]float64, ln)
	v.M3, v.M4 = nil, nil
	if moments {
		v.M3 = make([]float64, ln)
		v.M4 = make([]float64, ln)
	}
	for _, arr := range [][]float64{v.Mean, v.M2, v.M3, v.M4} {
		for j := range arr {
			arr[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
		}
		b = b[8*len(arr):]
	}
	return b, nil
}

// MarshalBinary encodes the shard accumulator pair with a magic/version
// header and a CRC-32 trailer, into one exactly sized allocation.
func (a *ShardAccum) MarshalBinary() ([]byte, error) {
	if a.Fixed == nil || a.Random == nil {
		return nil, fmt.Errorf("leakstat: shard %d accumulator incomplete", a.Shard)
	}
	return a.AppendBinary(make([]byte, 0, 4+8+8+a.Fixed.binarySize()+a.Random.binarySize()+4))
}

// AppendBinary appends the MarshalBinary encoding to b and returns the
// extended slice (the encoding.BinaryAppender method), so a caller that
// encodes shard after shard can reuse one buffer.
func (a *ShardAccum) AppendBinary(b []byte) ([]byte, error) {
	if a.Fixed == nil || a.Random == nil {
		return nil, fmt.Errorf("leakstat: shard %d accumulator incomplete", a.Shard)
	}
	magic := shardAccumMagic
	if a.Fixed.Order() >= 2 {
		magic = shardAccumMagic2
	}
	start := len(b)
	b = append(b, magic...)
	b = binary.LittleEndian.AppendUint64(b, uint64(a.Shard))
	b = binary.LittleEndian.AppendUint64(b, a.Cycles)
	b = a.Fixed.appendBinary(b)
	b = a.Random.appendBinary(b)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:])), nil
}

// UnmarshalBinary decodes and checksum-verifies a MarshalBinary encoding.
func (a *ShardAccum) UnmarshalBinary(data []byte) error {
	if len(data) < 4+8+8+4 {
		return fmt.Errorf("leakstat: shard accumulator truncated (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return fmt.Errorf("leakstat: shard accumulator checksum mismatch (%08x != %08x)", got, want)
	}
	if m := string(body[:4]); m != shardAccumMagic && m != shardAccumMagic2 {
		return fmt.Errorf("leakstat: bad shard accumulator magic %q", body[:4])
	}
	a.Shard = int(binary.LittleEndian.Uint64(body[4:]))
	a.Cycles = binary.LittleEndian.Uint64(body[12:])
	a.Fixed, a.Random = new(Vec), new(Vec)
	rest, err := a.Fixed.consumeBinary(body[20:])
	if err != nil {
		return err
	}
	rest, err = a.Random.consumeBinary(rest)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("leakstat: %d trailing bytes after shard accumulator", len(rest))
	}
	if wantOrder2 := string(body[:4]) == shardAccumMagic2; (a.Fixed.Order() >= 2) != wantOrder2 || (a.Random.Order() >= 2) != wantOrder2 {
		return fmt.Errorf("leakstat: shard accumulator magic %q disagrees with vector orders %d/%d",
			body[:4], a.Fixed.Order(), a.Random.Order())
	}
	return nil
}
