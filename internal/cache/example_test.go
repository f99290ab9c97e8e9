package cache_test

import (
	"fmt"
	"time"

	"ooddash/internal/cache"
	"ooddash/internal/clock"
)

// Fetch computes a value once and serves it from cache until the TTL
// expires — the Rails.cache.fetch pattern the dashboard backend uses in
// front of every Slurm command.
func ExampleCache_Fetch() {
	c := cache.New(clock.Real{})
	computes := 0
	expensiveSlurmQuery := func() (any, error) {
		computes++
		return "squeue output", nil
	}

	for i := 0; i < 3; i++ {
		v, _ := c.Fetch("recent_jobs:ada", 30*time.Second, expensiveSlurmQuery)
		fmt.Println(v)
	}
	fmt.Println("computed", computes, "time(s)")
	// Output:
	// squeue output
	// squeue output
	// squeue output
	// computed 1 time(s)
}
