//go:build !linux

package main

// cpuRotor does not pin outside Linux: every op runs in slot 0.
type cpuRotor struct{}

var rotor = &cpuRotor{}

func (r *cpuRotor) pin(int) int { return 0 }
func (r *cpuRotor) release()    {}
