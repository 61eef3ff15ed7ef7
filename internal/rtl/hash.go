package rtl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// fingerprintVersion bumps when the encoding below changes, so a
// generated simulator registered under an old encoding can never alias
// a new netlist.
const fingerprintVersion = 1

// Fingerprint returns a stable, content-addressed hash of the netlist:
// operations, widths, wiring, constants, register bindings and inits,
// memory shapes and ROM contents, write ports, and the done signal.
// Debug names of nodes and registers are excluded (analyses must not
// depend on them); memory names are included because jobs address
// scratchpads by name. Two modules with equal fingerprints simulate
// identically on identical jobs, which is the property the native
// simulator registry (RegisterNative) keys on.
func Fingerprint(m *Module) string {
	h := sha256.New()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wstr := func(s string) {
		w64(uint64(len(s)))
		h.Write([]byte(s))
	}
	w64(fingerprintVersion)
	w64(uint64(len(m.Nodes)))
	for i := range m.Nodes {
		n := &m.Nodes[i]
		w64(uint64(n.Op) | uint64(n.Width)<<8 | uint64(n.NArgs)<<16)
		for a := 0; a < int(n.NArgs); a++ {
			w64(uint64(n.Args[a]))
		}
		switch n.Op {
		case OpConst:
			w64(n.Const)
		case OpMemRead:
			w64(uint64(n.Mem))
		}
	}
	w64(uint64(len(m.Regs)))
	for i := range m.Regs {
		r := &m.Regs[i]
		w64(uint64(r.Node))
		w64(uint64(r.Next))
		w64(r.Init)
	}
	w64(uint64(len(m.Mems)))
	for _, mem := range m.Mems {
		wstr(mem.Name)
		w64(uint64(mem.Words))
		if mem.ROM {
			w64(1)
			w64(uint64(len(mem.Data)))
			for _, v := range mem.Data {
				w64(v)
			}
		} else {
			w64(0)
		}
	}
	w64(uint64(len(m.Writes)))
	for _, wp := range m.Writes {
		w64(uint64(wp.Mem))
		w64(uint64(wp.Addr))
		w64(uint64(wp.Data))
		w64(uint64(wp.En))
	}
	w64(uint64(m.Done))
	return hex.EncodeToString(h.Sum(nil))
}
