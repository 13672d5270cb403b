package sched

import "sort"

// FallbackTypes returns, sorted, the dynamic types Value has folded through
// its fmt fallback since the last ResetFallbacks.
func FallbackTypes() []string {
	var out []string
	fallbackTypes.Range(func(k, _ any) bool {
		out = append(out, k.(string))
		return true
	})
	sort.Strings(out)
	return out
}

// ResetFallbacks forgets the recorded fallback types.
func ResetFallbacks() { fallbackTypes.Clear() }
