//! Figure 8: hierarchical clustering of the filtered `Cipher` usage
//! changes; the ECB-fix cluster identifies rule R7.
//!
//! Usage: `cargo run --release -p diffcode-bench --bin fig8 [n_projects] [seed]`

use diffcode::Experiments;
use diffcode_bench::{config_from_args, header};

fn main() {
    let config = config_from_args(461);
    header(&format!(
        "Figure 8 — dendrogram of filtered Cipher usage changes ({} projects)",
        config.n_projects
    ));
    let exp = Experiments::new(corpus::generate(&config));
    let fig8 = exp.figure8("Cipher", 0.45);
    println!(
        "{} filtered Cipher changes, {} clusters at cut 0.45\n",
        fig8.filtered.len(),
        fig8.elicitation.clusters.len()
    );

    for (i, cluster) in fig8.elicitation.clusters.iter().take(10).enumerate() {
        println!(
            "--- cluster {} ({} members) ---",
            i + 1,
            cluster.members.len()
        );
        print!("{}", cluster.representative);
        println!();
    }

    // The paper's headline cluster: ECB-mode fixes merging into R7.
    let ecb_cluster = fig8.elicitation.clusters.iter().find(|c| {
        c.representative.removed.iter().any(|p| {
            let s = p.to_string();
            s.ends_with("arg1:AES") || s.contains("AES/ECB")
        })
    });
    match ecb_cluster {
        Some(c) => {
            println!(
                "ECB-fix cluster found with {} members -> elicits rule R7 (\"do not use ECB\")",
                c.members.len()
            );
            println!("auto-suggested predicate:\n{}", c.suggested);
        }
        None => println!("no ECB cluster found (corpus too small?)"),
    }

    // Beyond the paper: the silhouette-optimal cut needs no threshold.
    let auto = diffcode::elicit_auto(&fig8.filtered, None, &mut obs::Recorder::new());
    println!(
        "\nsilhouette-chosen cut (no threshold): {} clusters, largest has {} members",
        auto.clusters.len(),
        auto.clusters.first().map(|c| c.members.len()).unwrap_or(0)
    );

    println!("\n=== Dendrogram ===\n");
    print!("{}", fig8.rendering);
}
