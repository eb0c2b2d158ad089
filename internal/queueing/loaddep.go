package queueing

import (
	"context"
	"fmt"
	"math"
)

// LoadDependentResult is the solution of a machine-repairman system with
// a load-dependent server for one population.
type LoadDependentResult struct {
	// Customers is the population.
	Customers int
	// Throughput is completions per cycle.
	Throughput float64
	// QueueLength is the mean number of customers at the server.
	QueueLength float64
	// Residence is the mean time at the server per visit (Little).
	Residence float64
	// Idle is the probability the server is empty.
	Idle float64
}

// LoadDependentMVA solves a closed system of `customers` customers that
// think for mean `think` cycles and then queue at a server whose
// completion rate with k customers present is rate(k) (completions per
// cycle, k >= 1). The solution is the exact birth-death stationary
// distribution: lambda(k) = (n-k)/think, mu(k) = rate(k).
//
// This is the contention model the paper's footnote 2 sketches for
// multistage networks: "the multistage network is represented as a
// load-dependent service center characterised by its service rate at
// various loads."
func LoadDependentMVA(think float64, rate func(k int) float64, customers int) ([]LoadDependentResult, error) {
	return LoadDependentMVACtx(context.Background(), think, rate, customers)
}

// LoadDependentMVACtx is LoadDependentMVA with a cancellation point per
// population: the solve is quadratic in customers, so at a 2^20-port
// network it would otherwise run for hours past any deadline.
func LoadDependentMVACtx(ctx context.Context, think float64, rate func(k int) float64, customers int) ([]LoadDependentResult, error) {
	if customers < 1 {
		return nil, fmt.Errorf("%w: customers %d < 1", ErrInvalidInput, customers)
	}
	if think <= 0 {
		return nil, fmt.Errorf("%w: think %g must be positive (instant re-request makes the chain degenerate)", ErrInvalidInput, think)
	}
	if rate == nil {
		return nil, fmt.Errorf("%w: nil rate function", ErrInvalidInput)
	}
	results := make([]LoadDependentResult, customers)
	for n := 1; n <= customers; n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Unnormalized stationary probabilities p[k], k customers at
		// the server.
		p := make([]float64, n+1)
		p[0] = 1
		for k := 1; k <= n; k++ {
			mu := rate(k)
			if mu <= 0 || math.IsNaN(mu) || math.IsInf(mu, 0) {
				return nil, fmt.Errorf("%w: rate(%d) = %g", ErrInvalidInput, k, mu)
			}
			lambda := float64(n-k+1) / think
			p[k] = p[k-1] * lambda / mu
		}
		sum := 0.0
		for _, v := range p {
			sum += v
		}
		var x, q float64
		for k := 1; k <= n; k++ {
			prob := p[k] / sum
			x += prob * rate(k)
			q += prob * float64(k)
		}
		res := LoadDependentResult{
			Customers:   n,
			Throughput:  x,
			QueueLength: q,
			Idle:        p[0] / sum,
		}
		if x > 0 {
			res.Residence = q / x
		}
		results[n-1] = res
	}
	return results, nil
}
