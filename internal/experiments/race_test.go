//go:build race

package experiments

// raceEnabled trims slow test sweeps under the race detector.
const raceEnabled = true
