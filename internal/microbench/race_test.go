//go:build race

package microbench

func init() { raceEnabled = true }
