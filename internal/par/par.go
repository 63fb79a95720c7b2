// Package par is the parallel loop runtime executing the scheduler's
// DOALL descriptors: a persistent pool running chunked parallel-for
// loops over goroutine workers. It plays the role the target MIMD
// machine's loop scheduler played for the paper's generated C.
package par

import "runtime"

// DefaultWorkers is the worker count used when a Pool is created with
// workers <= 0.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }
