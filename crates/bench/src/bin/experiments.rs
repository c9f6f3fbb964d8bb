//! Regenerates every table and figure of the paper's evaluation
//! (experiments E1–E11).
//!
//! ```text
//! cargo run --release -p wfdl-bench --bin experiments -- --all
//! cargo run --release -p wfdl-bench --bin experiments -- --e1 --e2
//! ```

use wfdl_bench::experiments as ex;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "--all");
    let want = |flag: &str| all || args.iter().any(|a| a == flag);

    println!(
        "wfdatalog experiments — reproduction of Hernich, Kupke, Lukasiewicz,\n\
         Gottlob: \"Well-Founded Semantics for Extended Datalog and Ontological\n\
         Reasoning\" (PODS 2013)\n"
    );

    if want("--e1") {
        ex::e1_chase_forest_figure();
    }
    if want("--e2") {
        ex::e2_transfinite_stages();
    }
    if want("--e3") {
        ex::e3_data_complexity();
    }
    if want("--e4") {
        ex::e4_combined_complexity();
    }
    if want("--e5") {
        ex::e5_nbcq_answering();
    }
    if want("--e6") {
        ex::e6_dllite_employment();
    }
    if want("--e7") {
        ex::e7_engine_ablation();
    }
    if want("--e8") {
        ex::e8_stratified_vs_wfs();
    }
    if want("--e9") {
        ex::e9_winmove_scaling();
    }
    if want("--e10") {
        ex::e10_wcheck();
    }
    if want("--e11") {
        ex::e11_type_census();
    }
    ex::smoke_three_valued_query();
    println!("done.");
}
