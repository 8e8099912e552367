/**
 * @file
 * The robotics PcId site table.
 */

#include "robotics/pc_names.hh"

#include "robotics/astar.hh"
#include "robotics/collision.hh"
#include "robotics/control.hh"
#include "robotics/ekf.hh"
#include "robotics/icp.hh"
#include "robotics/mcl.hh"
#include "robotics/nns.hh"
#include "robotics/raycast.hh"

namespace tartan::robotics {

namespace {

constexpr sim::PcSite kSites[] = {
    {raycast_pc::map, "raycast.map", "occupancy-grid cells (DDA ray walk)"},
    {raycast_pc::interp, "raycast.interp",
     "occupancy-grid neighbours (bilinear interpolation)"},
    {collision_pc::footprint, "collision.footprint",
     "footprint grid cells ((x,y,theta) collision checks)"},
    {collision_pc::cuboid, "collision.cuboid",
     "obstacle cuboid array (pairwise checks)"},
    {nns_pc::brute, "nns.brute", "point store (brute-force NNS scan)"},
    {nns_pc::kdNode, "nns.kdNode", "k-d tree node (pointer chase)"},
    {nns_pc::kdPoint, "nns.kdPoint",
     "k-d tree point payload (distance check)"},
    {nns_pc::lshProject, "nns.lshProject",
     "LSH projection vectors (hash computation)"},
    {nns_pc::lshBucket, "nns.lshBucket", "LSH bucket scan (VLN fast path)"},
    {astar_pc::gValue, "astar.gValue",
     "A* g-value array (frontier expansion)"},
    {astar_pc::parent, "astar.parent",
     "A* parent array (path reconstruction)"},
    {astar_pc::stamp, "astar.stamp", "A* generation stamps (lazy reset)"},
    {mcl_pc::particle, "mcl.particle", "MCL particle state/weight arrays"},
    {ekf_pc::state, "ekf.state", "EKF state vector and covariance"},
    {icp_pc::cloud, "icp.cloud", "point cloud / surfel map payload"},
    {control_pc::path, "control.path", "waypoint path (pure pursuit)"},
    {control_pc::mpc, "control.mpc", "MPC horizon state"},
    {control_pc::dmp, "control.dmp", "DMP basis centers and weights"},
};

} // namespace

std::span<const sim::PcSite>
pcSites()
{
    return kSites;
}

} // namespace tartan::robotics
