/**
 * @file
 * ICP and point-based fusion implementation.
 */

#include "robotics/icp.hh"

#include <cmath>

#include "sim/logging.hh"

namespace tartan::robotics {

Transform3
Transform3::compose(const Transform3 &other) const
{
    Transform3 out;
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j) {
            double acc = 0.0;
            for (int k = 0; k < 3; ++k)
                acc += r[i * 3 + k] * other.r[k * 3 + j];
            out.r[i * 3 + j] = acc;
        }
    const Vec3 rt = apply(other.t);
    out.t = rt;
    return out;
}

double
Transform3::rotationAngle() const
{
    const double trace = r[0] + r[4] + r[8];
    const double c = std::clamp((trace - 1.0) / 2.0, -1.0, 1.0);
    return std::acos(c);
}

Transform3
makeTransform(double rx, double ry, double rz, const Vec3 &t)
{
    const double cx = std::cos(rx), sx = std::sin(rx);
    const double cy = std::cos(ry), sy = std::sin(ry);
    const double cz = std::cos(rz), sz = std::sin(rz);
    Transform3 out;
    // R = Rz * Ry * Rx.
    out.r[0] = cz * cy;
    out.r[1] = cz * sy * sx - sz * cx;
    out.r[2] = cz * sy * cx + sz * sx;
    out.r[3] = sz * cy;
    out.r[4] = sz * sy * sx + cz * cx;
    out.r[5] = sz * sy * cx - cz * sx;
    out.r[6] = -sy;
    out.r[7] = cy * sx;
    out.r[8] = cy * cx;
    out.t = t;
    return out;
}

namespace {

/** Horn's closed form: rotation from a 3x3 cross-covariance matrix. */
void
hornRotation(const double cc[9], double r_out[9])
{
    // Build the symmetric 4x4 N matrix.
    const double sxx = cc[0], sxy = cc[1], sxz = cc[2];
    const double syx = cc[3], syy = cc[4], syz = cc[5];
    const double szx = cc[6], szy = cc[7], szz = cc[8];
    double n[16] = {
        sxx + syy + szz, syz - szy,        szx - sxz,        sxy - syx,
        syz - szy,       sxx - syy - szz,  sxy + syx,        szx + sxz,
        szx - sxz,       sxy + syx,        -sxx + syy - szz, syz + szy,
        sxy - syx,       szx + sxz,        syz + szy,        -sxx - syy + szz,
    };
    // Shift to make the dominant eigenvalue the largest in magnitude.
    double shift = 0.0;
    for (int i = 0; i < 4; ++i) {
        double row = 0.0;
        for (int j = 0; j < 4; ++j)
            row += std::fabs(n[i * 4 + j]);
        shift = std::max(shift, row);
    }
    for (int i = 0; i < 4; ++i)
        n[i * 4 + i] += shift;

    // Power iteration for the dominant eigenvector (the quaternion).
    double q[4] = {1.0, 0.01, 0.01, 0.01};
    for (int it = 0; it < 50; ++it) {
        double next[4] = {0, 0, 0, 0};
        for (int i = 0; i < 4; ++i)
            for (int j = 0; j < 4; ++j)
                next[i] += n[i * 4 + j] * q[j];
        double norm = 0.0;
        for (double v : next)
            norm += v * v;
        norm = std::sqrt(norm);
        if (norm < 1e-15)
            break;
        for (int i = 0; i < 4; ++i)
            q[i] = next[i] / norm;
    }
    const double w = q[0], x = q[1], y = q[2], z = q[3];
    r_out[0] = 1 - 2 * (y * y + z * z);
    r_out[1] = 2 * (x * y - w * z);
    r_out[2] = 2 * (x * z + w * y);
    r_out[3] = 2 * (x * y + w * z);
    r_out[4] = 1 - 2 * (x * x + z * z);
    r_out[5] = 2 * (y * z - w * x);
    r_out[6] = 2 * (x * z - w * y);
    r_out[7] = 2 * (y * z + w * x);
    r_out[8] = 1 - 2 * (x * x + y * y);
}

} // namespace

IcpResult
icpAlign(Mem &mem, std::vector<float> &src, std::size_t count,
         NnsBackend &nns, const float *dst_store, const IcpConfig &cfg,
         std::uint32_t dst_stride)
{
    IcpResult result;
    const double max_d2 = cfg.maxPairDistance * cfg.maxPairDistance;
    if (count == 0) {
        result.degenerate = true;
        return result;
    }
    bool stepped = false;

    for (std::uint32_t iter = 0; iter < cfg.iterations; ++iter) {
        // 1. Correspondences via NNS.
        double cs[3] = {0, 0, 0};  // source centroid
        double cd[3] = {0, 0, 0};  // destination centroid
        std::vector<std::pair<std::size_t, std::int32_t>> pairs;
        for (std::size_t p = 0; p < count; ++p) {
            float q[3];
            for (int d = 0; d < 3; ++d)
                q[d] = mem.loadv(src.data() + p * 3 + d, icp_pc::cloud);
            // Corrupted points must not reach the NNS backends (LSH
            // hashes by float->int conversion, undefined for NaN).
            if (!std::isfinite(q[0]) || !std::isfinite(q[1]) ||
                !std::isfinite(q[2])) {
                if (iter == 0)
                    ++result.skippedPoints;
                continue;
            }
            const std::int32_t near = nns.nearest(mem, q);
            if (near < 0)
                continue;
            const float *dp =
                dst_store + static_cast<std::size_t>(near) * dst_stride;
            double d2 = 0.0;
            for (int d = 0; d < 3; ++d) {
                const double diff = q[d] - dp[d];
                d2 += diff * diff;
            }
            mem.exec(10);
            if (d2 > max_d2)
                continue;
            pairs.emplace_back(p, near);
            for (int d = 0; d < 3; ++d) {
                cs[d] += q[d];
                cd[d] += dp[d];
            }
        }
        if (pairs.size() < 3)
            break;
        const double inv = 1.0 / static_cast<double>(pairs.size());
        for (int d = 0; d < 3; ++d) {
            cs[d] *= inv;
            cd[d] *= inv;
        }

        // 2. Cross covariance and Horn rotation.
        double cc[9] = {0, 0, 0, 0, 0, 0, 0, 0, 0};
        double residual = 0.0;
        for (const auto &[p, near] : pairs) {
            const float *sp = src.data() + p * 3;
            const float *dp =
                dst_store + static_cast<std::size_t>(near) * dst_stride;
            const double s[3] = {sp[0] - cs[0], sp[1] - cs[1],
                                 sp[2] - cs[2]};
            const double d[3] = {dp[0] - cd[0], dp[1] - cd[1],
                                 dp[2] - cd[2]};
            for (int i = 0; i < 3; ++i)
                for (int j = 0; j < 3; ++j)
                    cc[i * 3 + j] += s[i] * d[j];
            residual += dist3(Vec3{sp[0], sp[1], sp[2]},
                              Vec3{dp[0], dp[1], dp[2]});
            mem.exec(30);
        }
        result.meanResidual = residual * inv;
        result.correspondences = pairs.size();

        Transform3 step;
        hornRotation(cc, step.r);
        mem.exec(900);  // 4x4 power iteration, 50 rounds
        const Vec3 rc = step.apply(Vec3{cs[0], cs[1], cs[2]});
        step.t = Vec3{cd[0] - rc.x, cd[1] - rc.y, cd[2] - rc.z};

        bool step_finite = std::isfinite(step.t.x) &&
                           std::isfinite(step.t.y) &&
                           std::isfinite(step.t.z);
        for (double v : step.r)
            step_finite = step_finite && std::isfinite(v);
        if (!step_finite) {
            // Keep the last valid estimate instead of applying garbage.
            result.degenerate = true;
            break;
        }

        // 3. Apply the step to the source cloud and accumulate.
        for (std::size_t p = 0; p < count; ++p) {
            float *sp = src.data() + p * 3;
            const Vec3 moved =
                step.apply(Vec3{sp[0], sp[1], sp[2]});
            mem.storev(sp + 0, static_cast<float>(moved.x), icp_pc::cloud);
            mem.storev(sp + 1, static_cast<float>(moved.y), icp_pc::cloud);
            mem.storev(sp + 2, static_cast<float>(moved.z), icp_pc::cloud);
            mem.exec(18);
        }
        result.transform = step.compose(result.transform);
        stepped = true;
    }
    if (!stepped)
        result.degenerate = true;
    return result;
}

std::size_t
fusePoints(Mem &mem, std::vector<float> &map_points,
           std::vector<float> &confidence, const std::vector<float> &frame,
           std::size_t count, NnsBackend &map_nns, double merge_radius,
           std::uint32_t map_stride, std::size_t *skipped)
{
    TARTAN_ASSERT(map_points.capacity() >=
                      map_points.size() + count * map_stride,
                  "map store must be pre-reserved (stable base pointer)");
    std::size_t inserted = 0;
    std::vector<std::uint32_t> neighbors;
    for (std::size_t p = 0; p < count; ++p) {
        const float *fp = frame.data() + p * 3;
        float q[3];
        for (int d = 0; d < 3; ++d)
            q[d] = mem.loadv(fp + d, icp_pc::cloud);
        if (!std::isfinite(q[0]) || !std::isfinite(q[1]) ||
            !std::isfinite(q[2])) {
            if (skipped)
                ++*skipped;
            continue;
        }

        neighbors.clear();
        map_nns.radius(mem, q, static_cast<float>(merge_radius),
                       neighbors);
        if (!neighbors.empty()) {
            // Merge into the closest neighbour (confidence-weighted).
            std::uint32_t best = neighbors.front();
            double best_d = 1e30;
            for (std::uint32_t id : neighbors) {
                const float *mp = map_points.data() + id * map_stride;
                double d2 = 0.0;
                for (int d = 0; d < 3; ++d) {
                    const double diff = q[d] - mp[d];
                    d2 += diff * diff;
                }
                mem.exec(9);
                if (d2 < best_d) {
                    best_d = d2;
                    best = id;
                }
            }
            float *mp = map_points.data() + best * map_stride;
            const float c = mem.loadv(&confidence[best], icp_pc::cloud);
            for (int d = 0; d < 3; ++d) {
                const float merged = (mp[d] * c + q[d]) / (c + 1.0f);
                mem.storev(mp + d, merged, icp_pc::cloud);
            }
            mem.storev(&confidence[best], c + 1.0f, icp_pc::cloud);
            mem.exec(12);
        } else {
            const std::uint32_t id = static_cast<std::uint32_t>(
                map_points.size() / map_stride);
            for (std::uint32_t d = 0; d < map_stride; ++d)
                map_points.push_back(d < 3 ? q[d] : 0.0f);
            confidence.push_back(1.0f);
            map_nns.insert(mem, id);
            ++inserted;
        }
    }
    return inserted;
}

} // namespace tartan::robotics
