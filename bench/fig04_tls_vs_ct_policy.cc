/**
 * @file
 * Paper Figure 4: 99.9% slowdown of the *long* jobs of Extreme Bimodal
 * under centralized PS (CT) vs two-level scheduling (TLS) with JSQ-PS
 * and either random or Maximum-Serviced-Quanta (MSQ) tie-breaking. No
 * preemption overheads (policy study).
 *
 * Expected shape: CT best (global view); TLS JSQ-PS with MSQ ties
 * competitive with CT; random ties notably worse for long jobs.
 */
#include <cstdio>

#include "bench_util.h"
#include "common/dist.h"
#include "sim/central.h"
#include "sim/sweep.h"
#include "sim/two_level.h"

using namespace tq;
using namespace tq::sim;

int
main()
{
    bench::banner("Figure 4",
                  "long-job 99.9% slowdown: CT vs TLS (JSQ-PS, MSQ vs "
                  "random ties), zero overhead, Extreme Bimodal");
    auto dist = workload_table::extreme_bimodal();
    const auto rates = rate_grid(mrps(0.5), mrps(4.25), 9);

    std::printf("rate_mrps\tCT\tTLS_MSQ\tTLS_RAND\n");
    for (double rate : rates) {
        CentralConfig ct;
        ct.quantum = us(1);
        ct.overheads = Overheads::ideal();
        ct.duration = bench::sim_duration();
        const SimResult r_ct = run_central(ct, *dist, rate);

        TwoLevelConfig tls;
        tls.quantum = us(1);
        tls.overheads = Overheads::ideal();
        tls.duration = bench::sim_duration();
        tls.lb = DispatchPolicy::JsqMsq;
        const SimResult r_msq = run_two_level(tls, *dist, rate);
        tls.lb = DispatchPolicy::JsqRandom;
        const SimResult r_rand = run_two_level(tls, *dist, rate);

        auto fmt = [](const SimResult &r) {
            return r.saturated
                       ? std::string("sat")
                       : bench::cell(r.by_class("Long").p999_slowdown);
        };
        std::printf("%.2f\t%s\t%s\t%s\n", to_mrps(rate), fmt(r_ct).c_str(),
                    fmt(r_msq).c_str(), fmt(r_rand).c_str());
        std::fflush(stdout);
    }
    return 0;
}
