//! A general-purpose simulation CLI: pick an algorithm, an environment,
//! and a horizon; get per-round series and a summary.
//!
//! ```text
//! cargo run --release -p dolbie-bench --bin dolbie_sim -- \
//!     --algorithm dolbie --env cluster --model resnet18 --workers 30 \
//!     --rounds 100 --seed 42 --csv results/run.csv
//! ```
//!
//! Environments: `cluster` (the §VI ML cluster; honors `--model`),
//! `edge` (the §III-B offloading scenario; `--workers` = servers + 1),
//! `rotating` (the synthetic rotating-straggler adversary).
//! Algorithms: `equ`, `ogd`, `abs`, `lbbsp`, `dolbie`, `bandit`, `opt`.

use dolbie_baselines::{Abs, ClairvoyantOpt, Equ, LbBsp, Ogd};
use dolbie_core::environment::RotatingStragglerEnvironment;
use dolbie_core::{
    run_episode, Allocation, BanditDolbie, Dolbie, DolbieConfig, Environment, EpisodeOptions,
    EpisodeTrace, LoadBalancer,
};
use dolbie_edge::{EdgeConfig, EdgeScenario};
use dolbie_metrics::Table;
use dolbie_mlsim::{Cluster, ClusterConfig, MlModel};

#[derive(Debug)]
struct Args {
    algorithm: String,
    env: String,
    model: MlModel,
    workers: usize,
    rounds: usize,
    seed: u64,
    alpha: f64,
    track_optimum: bool,
    csv: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            algorithm: "dolbie".into(),
            env: "cluster".into(),
            model: MlModel::ResNet18,
            workers: 30,
            rounds: 100,
            seed: 42,
            alpha: 0.001,
            track_optimum: false,
            csv: None,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: dolbie_sim [--algorithm equ|ogd|abs|lbbsp|dolbie|bandit|opt]\n\
         \x20                 [--env cluster|edge|rotating] [--model lenet5|resnet18|vgg16]\n\
         \x20                 [--workers N] [--rounds T] [--seed S] [--alpha A]\n\
         \x20                 [--regret] [--csv PATH] [--threads N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage()).clone();
        match flag.as_str() {
            "--algorithm" => args.algorithm = value().to_lowercase(),
            "--env" => args.env = value().to_lowercase(),
            "--model" => {
                args.model = match value().to_lowercase().as_str() {
                    "lenet5" => MlModel::LeNet5,
                    "resnet18" => MlModel::ResNet18,
                    "vgg16" => MlModel::Vgg16,
                    other => {
                        eprintln!("unknown model: {other}");
                        usage();
                    }
                }
            }
            "--workers" => args.workers = value().parse().unwrap_or_else(|_| usage()),
            "--rounds" => args.rounds = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--alpha" => args.alpha = value().parse().unwrap_or_else(|_| usage()),
            "--regret" => args.track_optimum = true,
            "--csv" => args.csv = Some(value()),
            "--threads" => {
                let n: usize = value().parse().unwrap_or_else(|_| usage());
                dolbie_core::parallel::set_threads(n.max(1));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    args
}

/// A cloneable environment selection so clairvoyant OPT can replay it.
#[derive(Clone)]
enum Env {
    Cluster(Box<Cluster>),
    Edge(Box<EdgeScenario>),
    Rotating(RotatingStragglerEnvironment),
}

impl Environment for Env {
    fn num_workers(&self) -> usize {
        match self {
            Env::Cluster(e) => e.num_workers(),
            Env::Edge(e) => e.num_workers(),
            Env::Rotating(e) => e.num_workers(),
        }
    }

    fn reveal(&mut self, round: usize) -> Vec<dolbie_core::cost::DynCost> {
        match self {
            Env::Cluster(e) => e.reveal(round),
            Env::Edge(e) => e.reveal(round),
            Env::Rotating(e) => e.reveal(round),
        }
    }
}

fn build_env(args: &Args) -> Env {
    match args.env.as_str() {
        "cluster" => {
            let mut cfg = ClusterConfig::paper(args.model);
            cfg.num_workers = args.workers;
            Env::Cluster(Box::new(Cluster::sample(cfg, args.seed)))
        }
        "edge" => {
            let mut cfg = EdgeConfig::paper_like();
            cfg.num_servers = args.workers.saturating_sub(1).max(1);
            Env::Edge(Box::new(EdgeScenario::sample(cfg, args.seed)))
        }
        "rotating" => Env::Rotating(RotatingStragglerEnvironment::new(args.workers, 10, 4.0, 1.0)),
        other => {
            eprintln!("unknown environment: {other}");
            usage();
        }
    }
}

fn build_balancer(args: &Args, env: &Env, n: usize) -> Box<dyn LoadBalancer> {
    let config = DolbieConfig::new().with_initial_alpha(args.alpha);
    match args.algorithm.as_str() {
        "equ" => Box::new(Equ::new(n)),
        "ogd" => Box::new(Ogd::new(n, args.alpha)),
        "abs" => Box::new(Abs::new(n, 5)),
        "lbbsp" => Box::new(LbBsp::new(n, 5.0 / 256.0, 5)),
        "dolbie" => Box::new(Dolbie::with_config(Allocation::uniform(n), config)),
        "bandit" => Box::new(BanditDolbie::with_config(Allocation::uniform(n), config)),
        "opt" => Box::new(ClairvoyantOpt::new(env.clone())),
        other => {
            eprintln!("unknown algorithm: {other}");
            usage();
        }
    }
}

fn report(trace: &EpisodeTrace, args: &Args) {
    println!(
        "{} on `{}` ({} workers, {} rounds, seed {})",
        trace.algorithm,
        args.env,
        trace.records[0].allocation.num_workers(),
        args.rounds,
        args.seed
    );
    let costs = trace.global_costs();
    let show = |t: usize| {
        if t < costs.len() {
            println!("  round {t:4}: global cost {:.6}", costs[t]);
        }
    };
    show(0);
    for t in (0..args.rounds).step_by((args.rounds / 10).max(1)).skip(1) {
        show(t);
    }
    show(args.rounds - 1);
    println!("  total cost: {:.6}", trace.total_cost());
    if let Some(regret) = trace.regret() {
        println!(
            "  dynamic regret: {:.6} (path length {:.6})",
            regret.dynamic_regret(),
            regret.path_length()
        );
    }
    if let Some(path) = &args.csv {
        let mut table = Table::new(vec!["round", "global_cost", "straggler"]);
        for r in &trace.records {
            table.push_row(vec![
                r.round.to_string(),
                format!("{:.9}", r.global_cost),
                r.straggler.to_string(),
            ]);
        }
        match table.write_csv(path) {
            Ok(()) => println!("  wrote {path}"),
            Err(e) => eprintln!("  failed to write {path}: {e}"),
        }
    }
}

fn main() {
    let args = parse_args();
    if args.rounds == 0 || args.workers < 2 {
        eprintln!("need at least 1 round and 2 workers");
        usage();
    }
    let env = build_env(&args);
    let n = env.num_workers();
    let mut balancer = build_balancer(&args, &env, n);
    let mut driver = env;
    let options = if args.track_optimum {
        EpisodeOptions::new(args.rounds).with_optimum()
    } else {
        EpisodeOptions::new(args.rounds)
    };
    let trace = run_episode(balancer.as_mut(), &mut driver, options);
    report(&trace, &args);
}
