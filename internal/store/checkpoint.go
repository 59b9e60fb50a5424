package store

// Checkpoint files persist the durable state of in-flight harvesting
// sessions (core.Checkpoint) so a killed harvest resumes instead of
// re-paying every query it already fired. One section in the container:
//
//	magic "L2QCKPT1"
//	CKPT section: count | per checkpoint:
//	    entity varint | aspect str | booted byte | rPhi f64 | rStarPhi f64
//	    | nFired uvarint | fired str... | nPages uvarint | pageID deltas varint...

import (
	"fmt"
	"io"

	"l2q/internal/core"
	"l2q/internal/corpus"
)

// ckptMagic identifies a checkpoint file and its major version.
const ckptMagic = "L2QCKPT1"

const secCheckpoints = "CKPT"

// SaveCheckpoints writes session checkpoints to w.
func SaveCheckpoints(w io.Writer, cps []core.Checkpoint) error {
	return writeContainer(w, ckptMagic, []section{
		{secCheckpoints, func(e *Enc) { encodeCheckpoints(e, cps) }},
	})
}

// LoadCheckpoints reads a checkpoint file written by SaveCheckpoints.
func LoadCheckpoints(r io.Reader) ([]core.Checkpoint, error) {
	var cps []core.Checkpoint
	seen := false
	err := readContainer(r, ckptMagic, map[string]func(*Dec) error{
		secCheckpoints: func(d *Dec) error { cps, seen = decodeCheckpoints(d), true; return nil },
	})
	if err != nil {
		return nil, err
	}
	if !seen {
		return nil, fmt.Errorf("store: missing CKPT section")
	}
	return cps, nil
}

// SaveCheckpointsFile writes the checkpoints to path durably (see
// replaceFile), so neither a crash nor a power failure mid-write loses the
// previous checkpoint — the whole point of keeping one.
func SaveCheckpointsFile(path string, cps []core.Checkpoint) error {
	return replaceFile(path, func(w io.Writer) error { return SaveCheckpoints(w, cps) })
}

// LoadCheckpointsFile reads a checkpoint file from path.
func LoadCheckpointsFile(path string) ([]core.Checkpoint, error) {
	return loadFile(path, LoadCheckpoints)
}

func encodeCheckpoints(e *Enc, cps []core.Checkpoint) {
	e.Uvarint(uint64(len(cps)))
	for _, cp := range cps {
		e.Varint(int64(cp.Entity))
		e.Str(string(cp.Aspect))
		booted := byte(0)
		if cp.Booted {
			booted = 1
		}
		e.Byte(booted)
		e.F64(cp.RPhi)
		e.F64(cp.RStarPhi)
		e.Uvarint(uint64(len(cp.Fired)))
		for _, q := range cp.Fired {
			e.Str(string(q))
		}
		e.Uvarint(uint64(len(cp.PageIDs)))
		prev := int64(0)
		for _, id := range cp.PageIDs {
			e.Varint(int64(id) - prev)
			prev = int64(id)
		}
	}
}

func decodeCheckpoints(d *Dec) []core.Checkpoint {
	n := d.Count("checkpoints")
	out := make([]core.Checkpoint, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		cp := core.Checkpoint{
			Entity: corpus.EntityID(d.Varint()),
			Aspect: corpus.Aspect(d.Str()),
		}
		cp.Booted = d.Byte() != 0
		cp.RPhi = d.F64()
		cp.RStarPhi = d.F64()
		nFired := d.Count("fired queries")
		for j := 0; j < nFired && d.Err() == nil; j++ {
			cp.Fired = append(cp.Fired, core.Query(d.Str()))
		}
		nPages := d.Count("checkpoint pages")
		prev := int64(0)
		for j := 0; j < nPages && d.Err() == nil; j++ {
			prev += d.Varint()
			cp.PageIDs = append(cp.PageIDs, corpus.PageID(prev))
		}
		out = append(out, cp)
	}
	return out
}
