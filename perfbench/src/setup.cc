/**
 * @file
 * Workload set-up: every input is synthesized from the seed with
 * buildWorkload (core/workload.hh) and written to the work
 * directory, together with the reference answers the measured
 * passes are checked against.  Nothing is downloaded.
 */

#include <fstream>
#include <sstream>

#include "core/realign_job.hh"
#include "core/workload.hh"
#include "genomics/io.hh"
#include "harness.hh"
#include "util/logging.hh"

namespace perfbench {

using namespace iracc;

namespace {

/** Benign NA12878 substitute: default variant and error rates,
 *  100 bp reads at 30x, six contigs (more than job threads). */
WorkloadParams
genomeStreamParams(uint64_t seed)
{
    WorkloadParams p;
    p.seed = seed;
    p.scaleDivisor = 500;
    p.chromosomes = {17, 18, 19, 20, 21, 22};
    p.coverage = 30.0;
    p.readSim.readLength = 100;
    return p;
}

/** Indel-dense read set: clustered indels up to 30 bp, 150 bp
 *  reads at 30x, so targets carry many consensuses. */
WorkloadParams
indelDenseParams(uint64_t seed)
{
    WorkloadParams p;
    p.seed = seed;
    p.scaleDivisor = 4000;
    p.chromosomes = {13, 14, 15, 16, 17, 18, 19, 20, 21, 22};
    p.coverage = 30.0;
    p.readSim.readLength = 150;
    p.variants.insRate = 1.5e-3;
    p.variants.delRate = 1.5e-3;
    p.variants.minIndelSpacing = 60;
    p.variants.clusterProb = 0.6;
    p.variants.maxIndelLen = 30;
    return p;
}

/** Server jobs: one SAM-lite file per contig over a mix of contig
 *  sizes (default rates, 100 bp reads at 30x). */
WorkloadParams
serverTenantsParams(uint64_t seed)
{
    WorkloadParams p;
    p.seed = seed;
    p.scaleDivisor = 4000;
    for (int c = 1; c <= 22; ++c)
        p.chromosomes.push_back(c);
    p.coverage = 30.0;
    p.readSim.readLength = 100;
    return p;
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary);
    os << bytes;
    fatal_if(!os, "cannot write '%s'", path.c_str());
}

RealignSession
oracleSession(const std::string &backend)
{
    RealignJobConfig cfg;
    cfg.threads = jobThreads();
    return makeSession(backend, cfg);
}

/** Realign @p reads in memory and record the answer under @p key. */
void
recordOracle(const RealignSession &session, const ReferenceGenome &ref,
             std::vector<Read> reads, const std::string &key, Manifest &m)
{
    RealignJobResult r = session.run(ref, reads);
    fatal_if(r.status != RunStatus::Ok, "set-up oracle run failed");
    m[key + ".digest"] = std::to_string(digestBytes(samLite(ref, reads)));
    m[key + ".targets"] = std::to_string(r.stats.targets);
    m[key + ".reads_realigned"] = std::to_string(r.stats.readsRealigned);
}

void
writeInputs(const WorkloadParams &p, const std::string &dir,
            Manifest &m)
{
    GenomeWorkload wl = buildWorkload(p);
    std::ostringstream fa;
    writeFasta(fa, wl.reference);
    writeFile(dir + "/ref.fa", fa.str());
    std::vector<Read> reads;
    for (const ChromosomeWorkload &chr : wl.chromosomes)
        reads.insert(reads.end(), chr.reads.begin(), chr.reads.end());
    writeFile(dir + "/reads.samlite", samLite(wl.reference, reads));
    m["input.contigs"] = std::to_string(wl.chromosomes.size());
    m["input.reads"] = std::to_string(reads.size());
    m["input.ref_bases"] = std::to_string(wl.reference.totalLength());
    m["input.sam_bytes"] = std::to_string(fileSize(dir + "/reads.samlite"));
}

} // namespace

double
runSetup(const Options &opt)
{
    Clock::time_point t0 = Clock::now();
    Manifest m;
    const std::string &dir = opt.dir;
    if (opt.workload == "genome-stream") {
        writeInputs(genomeStreamParams(opt.seed), dir, m);
        ReferenceGenome ref = loadReference(dir + "/ref.fa");
        recordOracle(oracleSession("native"), ref,
                     loadReads(dir + "/reads.samlite", ref), "oracle", m);
    } else if (opt.workload == "indel-dense") {
        writeInputs(indelDenseParams(opt.seed), dir, m);
    } else if (opt.workload == "server-tenants") {
        GenomeWorkload wl = buildWorkload(serverTenantsParams(opt.seed));
        std::ostringstream fa;
        writeFasta(fa, wl.reference);
        writeFile(dir + "/ref.fa", fa.str());
        ReferenceGenome ref = loadReference(dir + "/ref.fa");
        RealignSession solo = oracleSession("iracc");
        uint64_t reads = 0;
        for (size_t i = 0; i < wl.chromosomes.size(); ++i) {
            const ChromosomeWorkload &chr = wl.chromosomes[i];
            std::string path =
                dir + "/chr" + std::to_string(chr.number) + ".samlite";
            writeFile(path, samLite(wl.reference, chr.reads));
            std::string key = "file." + std::to_string(i);
            m[key + ".path"] = path;
            recordOracle(solo, ref, loadReads(path, ref), key, m);
            reads += chr.reads.size();
        }
        m["input.files"] = std::to_string(wl.chromosomes.size());
        m["input.reads"] = std::to_string(reads);
        m["input.ref_bases"] = std::to_string(wl.reference.totalLength());
    } else {
        fatal("unknown workload '%s'", opt.workload.c_str());
    }
    writeManifest(dir + "/manifest.txt", m);
    return secondsSince(t0);
}

} // namespace perfbench
