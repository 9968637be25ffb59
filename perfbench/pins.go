package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"uldma/internal/exp"
)

// pins.json holds the simulated outputs this benchmark checks every
// run against: per RPC world seed the fabric fingerprint (and, for
// hosted worlds, the machine digest) of the set-up and traffic worlds,
// and per guest cell the digest of its observation. Every value is
// layout- and host-independent; only a deliberate model change may
// regenerate them (go run . -pin, from this directory).
//
//go:embed pins.json
var pinsJSON []byte

type rpcPin struct {
	Fingerprint        string `json:"fingerprint"`
	MachineDigest      string `json:"machine_digest,omitempty"`
	Issued             uint64 `json:"issued"`
	Events             uint64 `json:"events"`
	SetupFingerprint   string `json:"setup_fingerprint"`
	SetupMachineDigest string `json:"setup_machine_digest,omitempty"`
}

// traffic and setup list the digests a world must reproduce, in the
// order the workloads report them (nil when unpinned).
func (p rpcPin) traffic() []string { return digestList(p.Fingerprint, p.MachineDigest) }
func (p rpcPin) setup() []string   { return digestList(p.SetupFingerprint, p.SetupMachineDigest) }

func digestList(fp, md string) []string {
	switch {
	case fp == "":
		return nil
	case md == "":
		return []string{fp}
	}
	return []string{fp, md}
}

// expected is the operation count a failed world is charged: its
// pinned RPC count, and at least one.
func (p rpcPin) expected() int64 {
	if p.Issued == 0 {
		return 1
	}
	return int64(p.Issued)
}

type pinFile struct {
	NowRPC    map[string]rpcPin            `json:"now_rpc"`     // world seed -> pin
	HostedRPC map[string]map[string]rpcPin `json:"hosted_rpc"`  // world seed -> protocol -> pin
	Guest     map[string]string            `json:"guest_suite"` // cell key -> digest
}

var pins = func() pinFile {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		panic("perfbench: pins.json: " + err.Error())
	}
	return p
}()

// writePins recomputes every pinned output on this commit and writes
// pins.json next to the sources.
func writePins() error {
	t0 := time.Now()
	p := pinFile{NowRPC: map[string]rpcPin{}, HostedRPC: map[string]map[string]rpcPin{}, Guest: map[string]string{}}
	for ws := uint64(1); ws <= worldSeeds; ws++ {
		setup, err := exp.RunScale(empty(nowParams(ws)), workers)
		if err != nil {
			return err
		}
		pt, err := exp.RunScale(nowParams(ws), workers)
		if err != nil {
			return err
		}
		p.NowRPC[fmt.Sprint(ws)] = rpcPin{Fingerprint: hex(pt.Fingerprint), Issued: pt.Issued, Events: pt.Events,
			SetupFingerprint: hex(setup.Fingerprint)}
		byProto := map[string]rpcPin{}
		for _, proto := range hostedProtocols {
			setup, err := exp.RunScaleMachineNamed(proto, empty(hostedParams(ws)), workers)
			if err != nil {
				return err
			}
			pt, err := exp.RunScaleMachineNamed(proto, hostedParams(ws), workers)
			if err != nil {
				return err
			}
			byProto[proto] = rpcPin{Fingerprint: hex(pt.Fingerprint), MachineDigest: hex(pt.MachineDigest),
				Issued: pt.Issued, Events: pt.Events,
				SetupFingerprint: hex(setup.Fingerprint), SetupMachineDigest: hex(setup.MachineDigest)}
		}
		p.HostedRPC[fmt.Sprint(ws)] = byProto
		fmt.Fprintf(os.Stderr, "pinned world seed %d (%v)\n", ws, time.Since(t0).Round(time.Millisecond))
	}
	cells, err := expandGuest()
	if err != nil {
		return err
	}
	for _, c := range cells {
		obs, stop, err := c.cell.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", c.key, err)
		}
		p.Guest[c.key] = cellDigest(obs, stop, nil)
	}
	b, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(repoRoot, "perfbench", "pins.json")
	fmt.Fprintf(os.Stderr, "pinned %d guest cells; writing %s\n", len(cells), path)
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
