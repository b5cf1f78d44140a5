//go:build race

package collective

// raceEnabled reports a -race build, where the detector's own
// bookkeeping makes AllocsPerRun counts drift by a few per call.
const raceEnabled = true
