//go:build race

package crypt

func init() { raceEnabled = true }
