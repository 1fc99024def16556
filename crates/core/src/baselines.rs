//! Baseline optimizers: random search, simulated annealing, and a
//! genetic algorithm.
//!
//! §2 of the paper argues that randomized global methods (SA, GA) are
//! unsuitable for *on-line* tuning: they may converge to better final
//! points, but their transient exploration is expensive and
//! `Total_Time` integrates every bad configuration they visit. These
//! implementations exist to quantify that claim (experiment T3).

use crate::optimizer::{Incumbent, Optimizer};
use harmony_params::{ParamSpace, Point};
use harmony_variability::seeded_rng;
use rand::rngs::SmallRng;
use rand::Rng;

fn random_point(space: &ParamSpace, rng: &mut SmallRng) -> Point {
    let unit: Vec<f64> = (0..space.dims()).map(|_| rng.random::<f64>()).collect();
    space.point_from_unit(&unit)
}

/// One-axis neighbour move: discrete coordinates step to an adjacent
/// admissible level, continuous ones take a 5%-of-width Gaussian-ish
/// step (uniform, clamped).
fn neighbor(space: &ParamSpace, from: &Point, rng: &mut SmallRng) -> Point {
    let axis = rng.random_range(0..space.dims());
    let p = space.param(axis);
    let mut coords = from.as_slice().to_vec();
    if p.is_continuous() {
        let step = 0.05 * p.width() * (2.0 * rng.random::<f64>() - 1.0);
        coords[axis] = p.clamp(coords[axis] + step);
    } else {
        let (below, above) = p.neighbors(coords[axis], 0.01);
        let choice = if rng.random::<bool>() {
            above.or(below)
        } else {
            below.or(above)
        };
        if let Some(c) = choice {
            coords[axis] = c;
        }
    }
    Point::new(coords)
}

/// Uniform random search: every batch draws `batch_size` fresh points.
/// With `batch_size = P` this models a cluster that tries `P` random
/// configurations per time step.
pub struct RandomSearch {
    space: ParamSpace,
    rng: SmallRng,
    batch_size: usize,
    pending: Vec<Point>,
    incumbent: Incumbent,
}

impl RandomSearch {
    /// Creates a random search with the given per-step batch size.
    pub fn new(space: ParamSpace, batch_size: usize, seed: u64) -> Self {
        assert!(batch_size >= 1, "batch size must be positive");
        RandomSearch {
            space,
            rng: seeded_rng(seed),
            batch_size,
            pending: Vec::new(),
            incumbent: Incumbent::new(),
        }
    }
}

impl Optimizer for RandomSearch {
    fn space(&self) -> &ParamSpace {
        &self.space
    }

    fn propose(&mut self) -> Vec<Point> {
        if self.pending.is_empty() {
            self.pending = (0..self.batch_size)
                .map(|_| random_point(&self.space, &mut self.rng))
                .collect();
        }
        self.pending.clone()
    }

    fn observe(&mut self, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.pending.len(),
            "observation length mismatch"
        );
        for (p, &v) in self.pending.iter().zip(values) {
            self.incumbent.offer(p, v);
        }
        self.pending.clear();
    }

    fn best(&self) -> Option<(Point, f64)> {
        self.incumbent.get()
    }

    fn name(&self) -> &str {
        "random"
    }
}

/// Simulated annealing with single-axis neighbour moves, Metropolis
/// acceptance, and geometric cooling.
pub struct SimulatedAnnealing {
    space: ParamSpace,
    rng: SmallRng,
    current: Point,
    current_val: Option<f64>,
    pending: Vec<Point>,
    temperature: f64,
    cooling: f64,
    incumbent: Incumbent,
    steps: usize,
}

impl SimulatedAnnealing {
    /// Creates SA starting from the space center.
    ///
    /// `t0` is the initial temperature (in objective units); `cooling`
    /// the per-step geometric factor in `(0, 1)`.
    pub fn new(space: ParamSpace, t0: f64, cooling: f64, seed: u64) -> Self {
        assert!(t0 > 0.0, "initial temperature must be positive");
        assert!((0.0..1.0).contains(&cooling), "cooling must be in (0,1)");
        let current = space.center();
        SimulatedAnnealing {
            space,
            rng: seeded_rng(seed),
            pending: vec![current.clone()],
            current,
            current_val: None,
            temperature: t0,
            cooling,
            incumbent: Incumbent::new(),
            steps: 0,
        }
    }

    /// The current temperature.
    pub fn temperature(&self) -> f64 {
        self.temperature
    }

    /// Accepted + rejected moves so far.
    pub fn steps(&self) -> usize {
        self.steps
    }
}

impl Optimizer for SimulatedAnnealing {
    fn space(&self) -> &ParamSpace {
        &self.space
    }

    fn propose(&mut self) -> Vec<Point> {
        if self.pending.is_empty() {
            self.pending = vec![neighbor(&self.space, &self.current, &mut self.rng)];
        }
        self.pending.clone()
    }

    fn observe(&mut self, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.pending.len(),
            "observation length mismatch"
        );
        let v = values[0];
        assert!(v.is_finite(), "observe: non-finite objective value");
        let candidate = self.pending.remove(0);
        self.incumbent.offer(&candidate, v);
        match self.current_val {
            None => {
                // first observation seeds the chain
                self.current = candidate;
                self.current_val = Some(v);
            }
            Some(cur) => {
                let accept = v <= cur || {
                    let p = ((cur - v) / self.temperature).exp();
                    self.rng.random::<f64>() < p
                };
                if accept {
                    self.current = candidate;
                    self.current_val = Some(v);
                }
                self.temperature *= self.cooling;
                self.steps += 1;
            }
        }
        self.pending.clear();
    }

    fn best(&self) -> Option<(Point, f64)> {
        self.incumbent.get()
    }

    fn recommendation(&self) -> Option<(Point, f64)> {
        // deploy the chain's current state
        self.current_val.map(|v| (self.current.clone(), v))
    }

    fn name(&self) -> &str {
        "simulated-annealing"
    }
}

/// A generational genetic algorithm: tournament selection, uniform
/// crossover, neighbour-move mutation, one-elite survival.
pub struct GeneticAlgorithm {
    space: ParamSpace,
    rng: SmallRng,
    population: Vec<Point>,
    fitness: Vec<f64>,
    mutation_prob: f64,
    incumbent: Incumbent,
    generations: usize,
}

impl GeneticAlgorithm {
    /// Creates a GA with `pop_size` random individuals.
    pub fn new(space: ParamSpace, pop_size: usize, mutation_prob: f64, seed: u64) -> Self {
        assert!(pop_size >= 2, "population needs at least 2 individuals");
        assert!(
            (0.0..=1.0).contains(&mutation_prob),
            "mutation probability must be in [0,1]"
        );
        let mut rng = seeded_rng(seed);
        let population = (0..pop_size)
            .map(|_| random_point(&space, &mut rng))
            .collect();
        GeneticAlgorithm {
            space,
            rng,
            population,
            fitness: Vec::new(),
            mutation_prob,
            incumbent: Incumbent::new(),
            generations: 0,
        }
    }

    /// Completed generations.
    pub fn generations(&self) -> usize {
        self.generations
    }

    fn tournament(&mut self) -> usize {
        let a = self.rng.random_range(0..self.population.len());
        let b = self.rng.random_range(0..self.population.len());
        if self.fitness[a] <= self.fitness[b] {
            a
        } else {
            b
        }
    }
}

impl Optimizer for GeneticAlgorithm {
    fn space(&self) -> &ParamSpace {
        &self.space
    }

    fn propose(&mut self) -> Vec<Point> {
        self.population.clone()
    }

    fn observe(&mut self, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.population.len(),
            "observation length mismatch"
        );
        self.fitness = values.to_vec();
        for (p, &v) in self.population.iter().zip(values) {
            self.incumbent.offer(p, v);
        }
        // next generation
        let elite_idx = self
            .fitness
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty population")
            .0;
        let mut next = vec![self.population[elite_idx].clone()];
        while next.len() < self.population.len() {
            let (pa, pb) = (self.tournament(), self.tournament());
            let mut coords = Vec::with_capacity(self.space.dims());
            for d in 0..self.space.dims() {
                let gene = if self.rng.random::<bool>() {
                    self.population[pa][d]
                } else {
                    self.population[pb][d]
                };
                coords.push(gene);
            }
            let mut child = Point::new(coords);
            if self.rng.random::<f64>() < self.mutation_prob {
                child = neighbor(&self.space, &child, &mut self.rng);
            }
            next.push(child);
        }
        self.population = next;
        self.generations += 1;
    }

    fn best(&self) -> Option<(Point, f64)> {
        self.incumbent.get()
    }

    fn recommendation(&self) -> Option<(Point, f64)> {
        // deploy the elite (population slot 0 after a generation)
        if self.fitness.is_empty() {
            self.incumbent.get()
        } else {
            let elite = self
                .fitness
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .expect("non-empty population");
            Some((self.population[0].clone(), *elite.1))
        }
    }

    fn name(&self) -> &str {
        "genetic"
    }
}

/// Exhaustive lattice sweep in processor-sized batches — the ATLAS-style
/// *off-line* approach the paper contrasts with on-line tuning (§7):
/// guaranteed to find the global optimum of a discrete space, at a
/// `Total_Time` cost proportional to the whole lattice.
pub struct ExhaustiveSweep {
    space: ParamSpace,
    queue: Vec<Point>,
    cursor: usize,
    batch_size: usize,
    pending_len: usize,
    incumbent: Incumbent,
}

impl ExhaustiveSweep {
    /// Creates a sweep over a fully discrete space.
    ///
    /// # Panics
    /// Panics when the space has no finite lattice, or one too large to
    /// count ([`ParamSpace::lattice_size`] is `None`), or the batch size
    /// is zero.
    pub fn new(space: ParamSpace, batch_size: usize) -> Self {
        assert!(batch_size >= 1, "batch size must be positive");
        assert!(
            space.lattice_size().is_some(),
            "exhaustive sweep needs a finite lattice"
        );
        let queue: Vec<Point> = space.lattice().collect();
        ExhaustiveSweep {
            space,
            queue,
            cursor: 0,
            batch_size,
            pending_len: 0,
            incumbent: Incumbent::new(),
        }
    }

    /// Lattice points remaining to evaluate.
    pub fn remaining(&self) -> usize {
        self.queue.len() - self.cursor
    }
}

impl Optimizer for ExhaustiveSweep {
    fn space(&self) -> &ParamSpace {
        &self.space
    }

    fn propose(&mut self) -> Vec<Point> {
        let end = (self.cursor + self.batch_size).min(self.queue.len());
        self.pending_len = end - self.cursor;
        self.queue[self.cursor..end].to_vec()
    }

    fn observe(&mut self, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.pending_len,
            "observation length mismatch"
        );
        for (p, &v) in self.queue[self.cursor..self.cursor + self.pending_len]
            .iter()
            .zip(values)
        {
            self.incumbent.offer(p, v);
        }
        self.cursor += self.pending_len;
        self.pending_len = 0;
    }

    fn best(&self) -> Option<(Point, f64)> {
        self.incumbent.get()
    }

    fn converged(&self) -> bool {
        self.cursor >= self.queue.len()
    }

    fn name(&self) -> &str {
        "exhaustive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_params::ParamDef;

    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::integer("x", -20, 20, 1).unwrap(),
            ParamDef::integer("y", -20, 20, 1).unwrap(),
        ])
        .unwrap()
    }

    fn bowl(p: &Point) -> f64 {
        p[0] * p[0] + p[1] * p[1] + 1.0
    }

    fn drive<O: Optimizer>(opt: &mut O, batches: usize) {
        for _ in 0..batches {
            let b = opt.propose();
            if b.is_empty() {
                break;
            }
            let vals: Vec<f64> = b.iter().map(bowl).collect();
            opt.observe(&vals);
        }
    }

    #[test]
    fn random_search_improves_with_budget() {
        let mut opt = RandomSearch::new(space(), 8, 1);
        drive(&mut opt, 50);
        let (_, val) = opt.best().unwrap();
        assert!(val < 50.0, "val={val}");
        // proposals are admissible
        for p in opt.propose() {
            assert!(opt.space().is_admissible(&p));
        }
    }

    #[test]
    fn random_search_batches_have_requested_size() {
        let mut opt = RandomSearch::new(space(), 5, 2);
        assert_eq!(opt.propose().len(), 5);
        opt.observe(&[1.0; 5]);
        assert_eq!(opt.propose().len(), 5);
    }

    #[test]
    fn sa_descends_bowl() {
        let mut opt = SimulatedAnnealing::new(space(), 50.0, 0.95, 3);
        drive(&mut opt, 2_000);
        let (_, val) = opt.best().unwrap();
        assert!(val <= 5.0, "val={val}");
        assert!(opt.temperature() < 50.0);
        assert!(opt.steps() > 100);
    }

    #[test]
    fn sa_accepts_uphill_when_hot() {
        // with huge temperature nearly every move is accepted, so the
        // chain wanders; with T ~ 0 it locks in
        let mut hot = SimulatedAnnealing::new(space(), 1e9, 0.9999, 4);
        drive(&mut hot, 500);
        let mut cold = SimulatedAnnealing::new(space(), 1e-9, 0.5, 4);
        drive(&mut cold, 500);
        let (_, hv) = hot.best().unwrap();
        let (_, cv) = cold.best().unwrap();
        assert!(hv.is_finite() && cv.is_finite());
    }

    #[test]
    fn ga_evolves_toward_minimum() {
        let mut opt = GeneticAlgorithm::new(space(), 16, 0.5, 5);
        drive(&mut opt, 60);
        let (_, val) = opt.best().unwrap();
        assert!(val <= 5.0, "val={val}");
        assert_eq!(opt.generations(), 60);
    }

    #[test]
    fn ga_survives_nan_fitness() {
        // a NaN estimate (corrupted measurement) must not panic the
        // elite argmin, and the elite must stay a finite-fitness member
        let mut opt = GeneticAlgorithm::new(space(), 8, 0.5, 5);
        let batch = opt.propose();
        let vals: Vec<f64> = batch
            .iter()
            .enumerate()
            .map(|(i, p)| if i == 2 { f64::NAN } else { bowl(p) })
            .collect();
        opt.observe(&vals);
        let (_, elite_val) = opt.recommendation().unwrap();
        assert!(elite_val.is_finite(), "elite fitness is {elite_val}");
        drive(&mut opt, 5); // keeps evolving normally afterwards
        assert!(opt.best().unwrap().1.is_finite());
    }

    #[test]
    fn ga_population_stays_admissible() {
        let mut opt = GeneticAlgorithm::new(space(), 10, 0.8, 6);
        for _ in 0..20 {
            let pop = opt.propose();
            for p in &pop {
                assert!(opt.space().is_admissible(p), "{p:?}");
            }
            let vals: Vec<f64> = pop.iter().map(bowl).collect();
            opt.observe(&vals);
        }
    }

    #[test]
    fn ga_elitism_is_monotone() {
        let mut opt = GeneticAlgorithm::new(space(), 12, 0.3, 7);
        let mut best_so_far = f64::INFINITY;
        for _ in 0..30 {
            let pop = opt.propose();
            let vals: Vec<f64> = pop.iter().map(bowl).collect();
            let gen_best = vals.iter().copied().fold(f64::INFINITY, f64::min);
            best_so_far = best_so_far.min(gen_best);
            opt.observe(&vals);
            // elite of the next generation is the best seen this one
            let next = opt.propose();
            assert!((bowl(&next[0]) - best_so_far).abs() < 1e-12);
        }
    }

    #[test]
    fn neighbor_moves_one_axis() {
        let sp = space();
        let mut rng = seeded_rng(8);
        let from = sp.center();
        for _ in 0..100 {
            let to = neighbor(&sp, &from, &mut rng);
            assert!(sp.is_admissible(&to));
            let moved: usize = (0..2).filter(|&d| to[d] != from[d]).count();
            assert!(moved <= 1);
        }
    }

    #[test]
    fn exhaustive_sweep_finds_global_optimum() {
        let sp = space(); // 41 x 41 lattice
        let mut opt = ExhaustiveSweep::new(sp.clone(), 64);
        let mut batches = 0;
        while !opt.converged() {
            let b = opt.propose();
            assert!(!b.is_empty());
            assert!(b.len() <= 64);
            let vals: Vec<f64> = b.iter().map(bowl).collect();
            opt.observe(&vals);
            batches += 1;
        }
        assert_eq!(batches, (41 * 41 + 63) / 64);
        assert_eq!(opt.remaining(), 0);
        let (p, v) = opt.best().unwrap();
        assert_eq!(p.as_slice(), &[0.0, 0.0]);
        assert_eq!(v, 1.0);
        assert!(opt.propose().is_empty());
    }

    #[test]
    #[should_panic(expected = "finite lattice")]
    fn exhaustive_rejects_continuous_spaces() {
        let sp = ParamSpace::new(vec![ParamDef::continuous("x", 0.0, 1.0).unwrap()]).unwrap();
        ExhaustiveSweep::new(sp, 8);
    }

    #[test]
    #[should_panic(expected = "finite lattice")]
    fn exhaustive_rejects_an_uncountable_lattice() {
        let sp = harmony_params::spec::parse_space(
            "a int 0 1000000; b int 0 1000000; c int 0 1000000; d int 0 1000000",
        )
        .unwrap();
        ExhaustiveSweep::new(sp, 8);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut opt = RandomSearch::new(space(), 4, seed);
            let mut log = Vec::new();
            for _ in 0..10 {
                let b = opt.propose();
                log.extend(b.iter().map(|p| (p[0], p[1])));
                opt.observe(&b.iter().map(bowl).collect::<Vec<_>>());
            }
            log
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
