#include "layers.hpp"

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "core/node.hpp"
#include "core/sighash_cache.hpp"
#include "crypto/ecdsa.hpp"
#include "script/interpreter.hpp"
#include "util/affinity.hpp"

namespace ebv::perf {

namespace {

/// Forwards every signature check to EbvSignatureChecker and times it, and
/// first times the pieces of that check as standalone calls on the same
/// bytes: sighash, DER parse, pubkey parse, sigcache probe, curve verify.
/// The standalone calls use the plain parsers, not the program's
/// thread-local parse memo, so they cost what a cold parse costs.
class TimingChecker final : public script::SignatureChecker {
public:
    TimingChecker(const core::EbvTransaction& tx, std::size_t input_index,
                  const core::TxSighashCache* cache, core::SigCache& sigcache,
                  LayerTotals& totals)
        : inner_(tx, input_index, cache, &sigcache),
          tx_(tx),
          input_index_(input_index),
          cache_(cache),
          sigcache_(sigcache),
          totals_(totals) {}

    [[nodiscard]] bool check_signature(util::ByteSpan signature, util::ByteSpan pubkey,
                                       util::ByteSpan script_code) const override {
        const std::int64_t t0 = now_ns();
        if (!signature.empty()) {
            const std::uint8_t hash_type = signature.back();
            const crypto::Hash256 digest =
                cache_ != nullptr ? cache_->digest(input_index_, script_code, hash_type)
                                  : core::ebv_signature_hash(tx_, input_index_, script_code,
                                                             hash_type);
            const std::int64_t t1 = now_ns();
            const auto sig = crypto::Signature::from_der(signature.first(signature.size() - 1));
            const std::int64_t t2 = now_ns();
            const auto key = crypto::PublicKey::parse(pubkey);
            const std::int64_t t3 = now_ns();
            timed("chain.sighash", totals_.sighash, t0, t1);
            timed("crypto.der_parse", totals_.der, t1, t2);
            timed("crypto.pubkey_parse", totals_.pubkey, t2, t3);
            if (sig && key) {
                const crypto::VerifyJob job{*key, *sig, digest};
                const std::int64_t t4 = now_ns();
                const bool cached = sigcache_.contains(job);
                const std::int64_t t5 = now_ns();
                timed("core.sigcache_probe", totals_.probe, t4, t5);
                // EbvSignatureChecker runs the curve check only on a miss,
                // so only a miss counts (and times) a verify.
                if (!cached) {
                    const std::int64_t t6 = now_ns();
                    (void)key->verify(digest, *sig);
                    timed("crypto.verify", totals_.verify, t6, now_ns());
                }
            }
        }
        const std::int64_t t7 = now_ns();
        standalone_ns_ += t7 - t0;
        const bool ok = inner_.check_signature(signature, pubkey, script_code);
        checks_ns_ += now_ns() - t0;
        return ok;
    }

    [[nodiscard]] std::int64_t standalone_ns() const { return standalone_ns_; }
    [[nodiscard]] std::int64_t checks_ns() const { return checks_ns_; }

private:
    void timed(const char* name, Acc& acc, std::int64_t a, std::int64_t b) const {
        acc.add(b - a);
        record_span(name, a, b);
    }

    core::EbvSignatureChecker inner_;
    const core::EbvTransaction& tx_;
    std::size_t input_index_;
    const core::TxSighashCache* cache_;
    core::SigCache& sigcache_;
    LayerTotals& totals_;
    mutable std::int64_t standalone_ns_ = 0;
    mutable std::int64_t checks_ns_ = 0;
};

/// SV for one input: the program's sv_check_input, with the timing checker
/// in place of the plain one.
bool replay_sv_input(const core::EbvTransaction& tx, std::size_t i,
                     const core::TxSighashCache* cache, core::SigCache& sigcache,
                     LayerTotals& totals) {
    const core::EbvInput& in = tx.inputs[i];
    TimingChecker checker(tx, i, cache, sigcache, totals);
    const std::int64_t a = now_ns();
    const script::ScriptError err = script::verify_script(
        in.unlock_script, in.els.outputs[in.out_index].lock_script, checker);
    const std::int64_t b = now_ns();
    totals.sv.add(b - a - checker.standalone_ns());
    totals.vm.add(b - a - checker.checks_ns());
    record_span("core.sv", a, b);
    ++totals.inputs;
    return err == script::ScriptError::kOk;
}

std::unique_ptr<core::TxSighashCache> replay_template(const core::EbvTransaction& tx,
                                                      LayerTotals& totals) {
    // The validators build a template only for transactions with enough
    // inputs to amortize it (and only while EBV_SIGHASH_TEMPLATE allows).
    if (!core::sighash_template_enabled(core::EbvValidatorOptions{}) ||
        tx.inputs.size() < core::kSighashCacheMinInputs)
        return nullptr;
    const std::int64_t a = now_ns();
    auto cache = std::make_unique<core::TxSighashCache>(tx);
    const std::int64_t b = now_ns();
    totals.templ.add(b - a);
    record_span("core.sighash_template", a, b);
    return cache;
}

/// Every layer of one block's connect, against `node`'s current state.
bool replay_block(const core::EbvBlock& block, const core::EbvNode& node,
                  const chain::ChainParams& params, core::SigCache& sigcache,
                  LayerTotals& totals) {
    const std::uint32_t height = node.next_height();
    std::int64_t a = now_ns();
    const bool structure_ok = !core::check_block_structure(block, params).has_value();
    std::int64_t b = now_ns();
    totals.structure.add(b - a);
    record_span("core.structure", a, b);
    if (!structure_ok) return false;

    bool ok = true;
    for (std::size_t t = 1; t < block.txs.size(); ++t) {
        const core::EbvTransaction& tx = block.txs[t];
        const auto cache = replay_template(tx, totals);
        for (std::size_t i = 0; i < tx.inputs.size(); ++i) {
            const core::EbvInput& in = tx.inputs[i];
            a = now_ns();
            const core::EvStatus ev =
                core::ev_check_input(in, node.headers().at(in.height), height);
            b = now_ns();
            totals.ev.add(b - a);
            record_span("core.ev", a, b);
            a = now_ns();
            const bool unspent =
                static_cast<bool>(node.status().check_unspent(in.height, in.absolute_position()));
            b = now_ns();
            totals.uv.add(b - a);
            record_span("core.uv", a, b);
            ok = ok && ev == core::EvStatus::kOk && unspent &&
                 replay_sv_input(tx, i, cache.get(), sigcache, totals);
        }
    }
    return ok;
}

/// One long-lived thread that runs posted tasks one at a time while the
/// poster waits. Budget threads share one CPU, so that the replay and the
/// 1-thread pass they compare run on the same core.
class ReplayThread {
public:
    ReplayThread()
        : thread_([this] {
              (void)util::pin_current_thread(util::affinity_cpu_count() - 1);
              loop();
          }) {}
    ~ReplayThread() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }
    ReplayThread(const ReplayThread&) = delete;
    ReplayThread& operator=(const ReplayThread&) = delete;

    void run(std::function<void()> task) {
        std::unique_lock<std::mutex> lock(mutex_);
        task_ = std::move(task);
        pending_ = true;
        cv_.notify_all();
        cv_.wait(lock, [this] { return !pending_; });
    }

private:
    void loop() {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            cv_.wait(lock, [this] { return stop_ || pending_; });
            if (pending_) {
                std::function<void()> task = std::move(task_);
                lock.unlock();
                task();
                lock.lock();
                pending_ = false;
                cv_.notify_all();
            } else if (stop_) {
                return;
            }
        }
    }

    std::mutex mutex_;
    std::condition_variable cv_;
    std::function<void()> task_;
    bool pending_ = false;
    bool stop_ = false;
    std::thread thread_;
};

}  // namespace

bool replay_admission(const std::vector<core::EbvTransaction>& txs, core::SigCache& sigcache,
                      LayerTotals& totals) {
    bool ok = true;
    for (const core::EbvTransaction& tx : txs) {
        const auto cache = replay_template(tx, totals);
        for (std::size_t i = 0; i < tx.inputs.size(); ++i)
            ok = replay_sv_input(tx, i, cache.get(), sigcache, totals) && ok;
    }
    for (const core::EbvTransaction& tx : txs) {
        for (std::size_t i = 0; i < tx.inputs.size(); ++i) {
            const core::EbvInput& in = tx.inputs[i];
            script::ScriptParser parser(in.unlock_script);
            const auto sig_op = parser.next();
            const auto key_op = parser.next();
            // Admitted transactions are P2PKH spends: <signature> <pubkey>.
            if (!sig_op || !key_op || sig_op->push_data.empty()) {
                ok = false;
                continue;
            }
            const util::Bytes& der = sig_op->push_data;
            const auto sig = crypto::Signature::from_der(
                util::ByteSpan(der).first(der.size() - 1));
            const auto key = crypto::PublicKey::parse(key_op->push_data);
            if (!sig || !key) {
                ok = false;
                continue;
            }
            const crypto::VerifyJob job{
                *key, *sig,
                core::ebv_signature_hash(tx, i, in.els.outputs[in.out_index].lock_script,
                                         der.back())};
            const std::int64_t a = now_ns();
            const bool hit = sigcache.contains(job);
            const std::int64_t b = now_ns();
            totals.probe.add(b - a);
            record_span("core.sigcache_probe", a, b);
            ok = ok && hit;
        }
    }
    return ok;
}

Budget run_budget(const Chain& chain, std::size_t begin, std::size_t end,
                  util::ThreadPool& pool, bool pipelined, Outcome& out) {
    Budget budget;
    budget.blocks = end - begin;
    budget.inputs = input_count(chain.blocks, begin, end);

    // The 1-thread pass and the replay each run on a thread of their own,
    // started together, so the program's thread-local parse memo is cold on
    // both at the first budgeted block and sees the same calls after.
    core::SigCache serial_cache;
    core::EbvNodeOptions serial_options;
    serial_options.params = chain.params;
    serial_options.validator.sigcache = &serial_cache;
    core::EbvNode serial(serial_options);
    {
        ReplayThread prefix_thread;
        prefix_thread.run([&] {
            for (std::size_t b = 0; b < begin; ++b)
                out.check(static_cast<bool>(serial.submit_block(chain.blocks[b])),
                          "budget: serial prefix block rejected");
        });
    }

    core::SigCache replay_cache;
    ReplayThread replay;
    ReplayThread connect;
    for (std::size_t b = begin; b < end; ++b) {
        bool layers_ok = false;
        replay.run([&] {
            layers_ok = replay_block(chain.blocks[b], serial, chain.params, replay_cache,
                                     budget.layers);
        });
        out.check(layers_ok, "budget: layer replay rejected block " + std::to_string(b));
        connect.run([&] {
            const std::int64_t a = now_ns();
            const auto result = serial.submit_block(chain.blocks[b]);
            const std::int64_t c = now_ns();
            budget.one_thread_ns += static_cast<double>(c - a);
            record_span("submit_block.1thread", a, c);
            out.check(static_cast<bool>(result),
                      "budget: 1-thread pass rejected block " + std::to_string(b));
            if (result) {
                budget.layers.commit.add(result->update.wall_ns);
                record_span("core.commit", c - result->update.wall_ns, c);
            }
        });
    }

    core::SigCache parallel_cache;
    core::EbvNodeOptions parallel_options;
    parallel_options.params = chain.params;
    parallel_options.validator.script_pool = &pool;
    parallel_options.validator.sigcache = &parallel_cache;
    parallel_options.pipeline.enabled = pipelined;
    core::EbvNode parallel(parallel_options);
    if (begin > 0) {
        const auto prefix = parallel.submit_blocks({chain.blocks.data(), begin});
        out.check(prefix.ok(), "budget: parallel prefix rejected");
    }
    const std::int64_t a = now_ns();
    if (pipelined) {
        const auto result = parallel.submit_blocks({chain.blocks.data() + begin, end - begin});
        out.check(result.ok() && result.connected == end - begin,
                  "budget: parallel pass rejected a block");
    } else {
        for (std::size_t b = begin; b < end; ++b)
            out.check(static_cast<bool>(parallel.submit_block(chain.blocks[b])),
                      "budget: parallel pass rejected block " + std::to_string(b));
    }
    budget.parallel_ns = static_cast<double>(now_ns() - a);
    return budget;
}

void add_layer_metrics(const LayerTotals& t, Outcome& out) {
    const double inputs = static_cast<double>(t.inputs);
    out.add("core.sv_us", ratio(t.sv.ns + t.templ.ns, inputs) / 1e3, "us");
    out.add("chain.sighash_us", t.sighash.mean_ns() / 1e3, "us");
    out.add("crypto.der_parse_us", t.der.mean_ns() / 1e3, "us");
    out.add("crypto.pubkey_parse_us", t.pubkey.mean_ns() / 1e3, "us");
    out.add("crypto.verify_us", t.verify.mean_ns() / 1e3, "us");
    out.add("crypto.verifies", ratio(static_cast<double>(t.verify.n), inputs), "1/input");
    out.add("script.vm_us", t.vm.mean_ns() / 1e3, "us");
    out.add("core.ev_us", t.ev.mean_ns() / 1e3, "us");
    out.add("core.uv_ns", t.uv.mean_ns(), "ns");
    out.add("core.structure_us", t.structure.mean_ns() / 1e3, "us");
    out.add("core.commit_us", t.commit.mean_ns() / 1e3, "us");
    out.add("core.sigcache_probe_ns", t.probe.mean_ns(), "ns");
}

}  // namespace ebv::perf
