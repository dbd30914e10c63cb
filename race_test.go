//go:build race

package godcdo_test

func init() { raceEnabled = true }
