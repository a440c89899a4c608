package main

// Host-speed calibration. On a shared box the same binary runs up to a
// quarter slower for minutes at a time (measured while sizing this
// benchmark: see README, "Noise"), which no median inside one run can
// remove. A fixed reference loop — the two things the workloads spend
// their time in, ed25519 verification and hash-map traffic — is timed
// before and after every leg; a round's host times are divided by how
// much slower than calibrationRef the loop ran during that round. The
// repo's perf gate (internal/perf) normalizes the same way.

import (
	"crypto/ed25519"
	"time"
)

// calibrationRef is the loop's duration on the box the first baseline
// was taken on, in a quiet phase: a round at that speed has factor 1
// and reports plain wall seconds.
const calibrationRef = 0.103

var calKeyPub, calKeyPriv, _ = ed25519.GenerateKey(zeroReader{})

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// calibrate times the reference loop for a full-size run. A scaled run
// (tests) is not comparable anyway and reads the reference itself, so
// the smoke test does not spend its time calibrating.
func (e *env) calibrate() float64 {
	if e.scale != 1 {
		return calibrationRef
	}
	return calibrate()
}

// calibrate runs the reference loop once and returns its seconds:
// signature checks, then inserts into and lookups in a map that outgrows
// the private caches.
func calibrate() float64 {
	msg := make([]byte, 32)
	sig := ed25519.Sign(calKeyPriv, msg)
	t0 := time.Now()
	for i := 0; i < 1000; i++ {
		if !ed25519.Verify(calKeyPub, msg, sig) {
			panic("calibrate: reference signature rejected")
		}
	}
	m := make(map[uint64]uint64)
	x, sum := uint64(1), uint64(0)
	for i := 0; i < 200_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		m[x>>20] = x
	}
	for i := 0; i < 1_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		sum += m[x>>20]
	}
	d := time.Since(t0).Seconds()
	if sum == 1 {
		return 0 // never true: keeps the lookups observable
	}
	return d
}
